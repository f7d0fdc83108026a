import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import weaksv
import weaksv.cli
from weaksv.cli import main
from weaksv.corpus import ValidationIssue, load_manifest
from weaksv.config import SCHEMA, load_run_config, parse_config_text, render_config, render_schema
from weaksv.diarize import PRESETS, DiarConfig
from weaksv.embedder import EmbedderConfig
from weaksv.errors import ConfigError, NonFiniteGradient
from weaksv.losses import Schedule
from weaksv.synth import SynthConfig
from weaksv.trainer import StageConfig

from conftest import edit_index

SMALL = """
seed = 99
[synth]
n_speakers = 6
recordings_per_speaker = 5
segments_per_recording = 4..6
frames_per_segment = 4..8
unknown_speaker_count = 3
[trials]
heldout_fraction = 0.4
n_target = 40
n_nontarget = 40
[stage1]
epochs = 8
batch_size = 24
[stage2]
epochs = 6
batch_size = 24
[select]
top_k = 2
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "small.cfg"
    cfg_path.write_text(SMALL)
    out = root / "run"
    for cmd in ("gen", "diar", "train1", "select", "train2", "eval"):
        code = main([cmd, "--config", str(cfg_path), "--out", str(out)])
        assert code == 0, f"{cmd} failed"
    return out


class TestConfig:
    def test_defaults_parse(self):
        cfg = load_run_config(None)
        assert cfg.seed == 1234
        assert cfg.synth.n_speakers == 40
        assert cfg.stage2.margin == Schedule(0.1, 0.3)  # the pilot and acceptance bounds' calibration

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[synth]\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[nope]\nx = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[synth]\nn_speakers = many\n")

    def test_schedule_and_range_syntax(self):
        values = parse_config_text("[stage2]\nmargin = 0.05->0.25\n[synth]\nframes_per_segment = 3..9\n")
        assert values["stage2"]["margin"].start == 0.05
        assert values["stage2"]["margin"].end == 0.25
        assert values["synth"]["frames_per_segment"] == (3, 9)

    def test_preset_resolution_and_override(self):
        cfg = load_run_config(None)
        assert cfg.diar.split_factor == 2.0 and not cfg.diar.drop_noise
        values = parse_config_text("[diar]\npreset = pyannote-like\n")
        cfg2 = _build(values)
        assert cfg2.diar.drop_noise and cfg2.diar.max_clusters == 4
        values = parse_config_text("[diar]\npreset = pyannote-like\nmax_clusters = 6\n")
        cfg3 = _build(values)
        assert cfg3.diar.max_clusters == 6 and cfg3.diar.drop_noise

    def test_preset_choices_are_the_presets(self):
        assert set(SCHEMA["diar"]["preset"].allowed.split(" | ")) == set(PRESETS)

    def test_render_round_trip(self):
        text = render_config()
        values = parse_config_text(text)
        assert values["synth"]["n_speakers"] == SCHEMA["synth"]["n_speakers"].default

    def test_parse_holds_only_the_keys_the_text_sets(self):
        assert parse_config_text("") == {}
        assert parse_config_text("# no keys\n[synth]\n[stage2]\nepochs = 3\n") == {"stage2": {"epochs": 3}}

    def test_stage_sections_are_stage_configs(self):
        """Every [stage1] and [stage2] key is a StageConfig field; a non-default value of each reaches the record."""
        assert {f.name for f in fields(StageConfig)} == set(SCHEMA["stage1"]) | set(SCHEMA["stage2"])
        changed = {"aggregation": "lse", "margin": Schedule(0.05, 0.25), "tau": Schedule.fixed(0.3), "scale": 20.0,
                   "epochs": 7, "batch_size": 16, "lr_max": 0.04, "lr_final": 0.001, "warmup_frac": 0.1,
                   "momentum": 0.5, "unknown_start_epoch": 2, "unknown_mix_fraction": 0.2}
        values = {sec: {name: changed[name] for name in SCHEMA[sec]} for sec in ("stage1", "stage2")}
        assert all(value != SCHEMA[sec][name].default for sec, keys in values.items() for name, value in keys.items())
        cfg = _build(parse_config_text(render_config(values)))
        for sec, keys in values.items():
            assert {name: getattr(getattr(cfg, sec), name) for name in keys} == keys, sec

    def test_model_keys_and_feat_dim_reach_the_model(self):
        assert {f.name for f in fields(EmbedderConfig)} == {"feat_dim", *SCHEMA["model"]}
        cfg = _build(parse_config_text("[synth]\nfeat_dim = 12\n[model]\nhidden_dim = 5\nemb_dim = 3\n"))
        assert cfg.model == EmbedderConfig(feat_dim=12, hidden_dim=5, emb_dim=3)

    def test_record_defaults_are_the_schema_defaults(self):
        """A record's own defaults are its section's; stage 2 states its epochs and margin, and diar's default
        preset is DiarConfig()."""
        def same(record, section):
            keys = {name: key.default for name, key in SCHEMA[section].items() if name != "preset"}
            assert {name: getattr(record, name) for name in keys} == keys, section

        same(StageConfig(), "stage1")
        same(replace(StageConfig(), epochs=20, margin=Schedule(0.1, 0.3)), "stage2")
        same(SynthConfig(), "synth")
        same(EmbedderConfig(), "model")
        assert EmbedderConfig().feat_dim == SCHEMA["synth"]["feat_dim"].default
        same(DiarConfig(), "diar")
        assert PRESETS[SCHEMA["diar"]["preset"].default] == DiarConfig()

    def test_schema_file_is_current(self):
        schema = Path(__file__).resolve().parents[1] / "schema.txt"
        assert schema.read_text("utf-8") == render_schema() + "\n"

    def test_schema_mentions_every_key(self):
        text = render_schema()
        for section, keys in SCHEMA.items():
            for name in keys:
                assert (f"{section}.{name}" if section else name) in text


def test_readme_examples_show_every_command():
    """The README's command examples show every CLI command and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    blocks = readme.split("```")[1::2]
    shown = {line.split()[1] for block in blocks for line in block.splitlines() if line.startswith("weaksv ")}
    assert shown == set(weaksv.cli.COMMANDS)


def _build(values):
    from weaksv.config import build_run_config

    return build_run_config(values, "")


class TestPipeline:
    def test_artifacts_exist(self, run_dir):
        for name in ("config.snapshot", "corpus.idx", "corpus.feat", "oracle.tsv",
                     "trials.tsv", "stage1.ckpt", "metrics_stage1.csv", "selection.jsonl",
                     "selection_stats.json", "unknown_pool.jsonl", "stage2.ckpt",
                     "metrics_stage2.csv", "scores_stage1.tsv", "scores_stage2.tsv",
                     "eval_stage1.json", "eval_stage2.json", "report.json"):
            assert (run_dir / name).exists(), name

    def test_feature_file_header(self, run_dir):
        raw = (run_dir / "corpus.feat").read_bytes()
        assert raw[:4] == b"WMLF"
        version, feat_dim, reserved = struct.unpack("<III", raw[4:16])
        assert version == 1 and feat_dim == 20 and reserved == 0
        assert (len(raw) - 16) % (4 * feat_dim) == 0

    def test_idx_layout(self, run_dir):
        raw = (run_dir / "corpus.idx").read_bytes()
        magic, version, r, c, m, s, d = struct.unpack_from("<4sI5Q", raw)
        corpus = load_manifest(run_dir)
        table = corpus.table
        assert (magic, version, d) == (b"WIDX", 2, 20)
        members = sum(len(cluster) for rec in corpus.recordings for cluster in rec.clusters)
        assert (r, c, m, s) == (len(corpus.recordings), len(table.sizes), members, len(corpus.segments))
        assert len(raw) == 48 + 8 * (4 * r + c + m + 2 * s + s * d)
        # the means close the file, as little-endian float64 rows
        assert raw[-8 * s * d:] == np.ascontiguousarray(corpus.mean_frames(), dtype="<f8").tobytes()

    def test_trials_format(self, run_dir):
        lines = (run_dir / "trials.tsv").read_text().splitlines()
        assert len(lines) == 80
        assert sum(int(l.split("\t")[2]) for l in lines) == 40

    def test_report_contents(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        assert set(report["evals"]) == {"stage1", "stage2"}
        for payload in report["evals"].values():
            assert 0.0 <= payload["eer"] <= 1.0
            assert 0.0 <= payload["mindcf"] <= 1.0 + 1e-9
        assert report["selection"]["precision"] > 0
        assert "stage1" in report["schedules"]

    def test_checkpoint_readable(self, run_dir):
        from weaksv.embedder import load_checkpoint

        ckpt = load_checkpoint(run_dir / "stage2.ckpt")
        assert ckpt.velocities is not None
        assert ckpt.params["P"].shape[0] == 6


class TestExitCodes:
    def test_train2_without_selection_fails(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        out = tmp_path / "empty"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["train2", "--config", str(cfg_path), "--out", str(out)]) == 1

    def test_train2_on_empty_selection_is_exit_1(self, run_dir, tmp_path, capsys):
        """An empty selection.jsonl is a faulty input, not a configuration error."""
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        (run / "selection.jsonl").write_bytes(b"")
        (run / "stage2.ckpt").unlink()
        assert main(["train2", "--config", str(run_dir.parent / "small.cfg"), "--out", str(run)]) == 1
        assert "error: stage-2 selection is empty" in capsys.readouterr().err.splitlines()
        assert not (run / "stage2.ckpt").exists()

    def test_bad_config_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[synth]\nn_speakers = banana\n")
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_key_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("whatever = 3\n")
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_schema_prints(self, capsys):
        assert main(["schema"]) == 0
        assert "synth.n_speakers" in capsys.readouterr().out

    def test_leaves_hugepage_advice_as_found(self):
        multiarray = (getattr(np, "_core", None) or np.core).multiarray
        before = multiarray._get_madvise_hugepage()
        try:
            for flag in (True, False):
                multiarray._set_madvise_hugepage(flag)
                assert main(["schema"]) == 0
                assert multiarray._get_madvise_hugepage() is flag
        finally:
            multiarray._set_madvise_hugepage(before)


def _edge_values(key):
    """(inside, outside) value pairs at each bound of key.allowed, one step apart."""
    if key.kind == "str":
        return [(choice, "bogus") for choice in key.allowed.split(" | ")]
    step = 1 if key.kind in ("int", "range") else 1e-6
    kind = int if step == 1 else float
    lo, hi = key.allowed[1:-1].split(", ")
    pairs = []
    if lo != "-inf":
        lo = kind(float(lo))
        pairs.append((lo, lo - step) if key.allowed[0] == "[" else (lo + step, lo))
    if hi != "inf":
        hi = kind(float(hi))
        pairs.append((hi, hi + step) if key.allowed[-1] == "]" else (hi - step, hi))
    return pairs


def _config_line(section, name, value):
    kind = SCHEMA[section][name].kind
    text = f"{value}..{value}" if kind == "range" else value if kind == "str" else repr(value)
    return f"[{section}]\n{name} = {text}\n"


def _keys_with_allowed():
    return [(sec, name) for sec, keys in SCHEMA.items() for name, key in keys.items() if key.allowed]


# (id, config text, the key its config error must name): one row per cross
# rule, the range and schedule ends, and values a later stage would trip over
BAD_CONFIGS = [
    ("feat_dim_below_latent_dim", "[synth]\nfeat_dim = 4\nlatent_dim = 8\n", "synth.feat_dim"),
    ("range_lo_above_hi", "[synth]\nframes_per_segment = 5..3\n", "synth.frames_per_segment"),
    ("range_low_end_outside", "[synth]\nframes_per_segment = 0..3\n", "synth.frames_per_segment"),
    ("schedule_end_outside", "[stage1]\ntau = 0.5->0\n", "stage1.tau"),
    ("stage1_lr_final_above_lr_max", "[stage1]\nlr_final = 0.1\n", "stage1.lr_final"),
    ("stage2_lr_final_above_lr_max", "[stage2]\nlr_max = 0.01\nlr_final = 0.02\n", "stage2.lr_final"),
    ("top_k_not_below_n_speakers", "[select]\ntop_k = 40\n", "select.top_k"),
    ("mix_leaves_no_known_row", "[stage2]\nbatch_size = 4\nunknown_mix_fraction = 0.9\n",
     "stage2.unknown_mix_fraction"),
    ("mix_checked_with_unknown_class_off", "[stage2]\nunknown_start_epoch = -1\nbatch_size = 1\n"
     "unknown_mix_fraction = 0.6\n", "stage2.unknown_mix_fraction"),
    ("stage1_scale_negative", "[stage1]\nscale = -1\n", "stage1.scale"),
    ("stage2_margin_too_large", "[stage2]\nmargin = 0.9\n", "stage2.margin"),
    ("stage1_no_epochs", "[stage1]\nepochs = 0\n", "stage1.epochs"),
    ("stage2_negative_epochs", "[stage2]\nepochs = -1\n", "stage2.epochs"),
    ("p_target_zero", "[eval]\np_target = 0\n", "eval.p_target"),
    ("one_speaker", "[synth]\nn_speakers = 1\n", "synth.n_speakers"),
    ("baseline_purity_zero", "[diar]\npreset = baseline\npurity = 0\n", "diar.purity"),
    ("custom_preset", "[diar]\npreset = custom\n", "diar.preset"),
    ("preset_purity_zero", "[diar]\npurity = 0\n", "diar.purity"),
    ("momentum_above_one", "[stage1]\nmomentum = 1.5\n", "stage1.momentum"),
    ("lr_max_negative", "[stage1]\nlr_max = -1\n", "stage1.lr_max"),
    ("heldout_fraction_above_one", "[trials]\nheldout_fraction = 1.5\n", "trials.heldout_fraction"),
    ("nan_value", "[stage2]\nscale = nan\n", "stage2.scale"),
]

# Loads with every value at the edge of its allowed set: the rules between
# keys hold for each edge value of one key with the others at these values.
EDGE_BASE = """
[synth]
latent_dim = 2
[stage1]
lr_final = 1e-9
[stage2]
lr_final = 1e-9
batch_size = 10000000
[select]
top_k = 1
"""


def _assert_rejected_by_gen(tmp_path, capsys, text, key):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "run"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and key in err[0], err
    assert not out.exists() or not any(out.iterdir())


class TestAllowedValues:
    """The schema decides every valid run: a bad value exits 2 before any file is written."""

    @pytest.mark.parametrize("section, name", _keys_with_allowed())
    def test_default_is_allowed(self, section, name):
        from weaksv.config import _allows, _ends

        key = SCHEMA[section][name]
        assert all(_allows(key.allowed, end) for end in _ends(key.kind, key.default))

    @pytest.mark.parametrize("section, name, inside, outside", [
        pytest.param(sec, name, inside, outside, id=f"{sec}.{name}={outside}")
        for sec, name in _keys_with_allowed() for inside, outside in _edge_values(SCHEMA[sec][name])])
    def test_edge_of_allowed_set(self, tmp_path, capsys, section, name, inside, outside):
        _assert_rejected_by_gen(tmp_path, capsys, _config_line(section, name, outside), f"{section}.{name}")
        cfg_path = tmp_path / "edge.cfg"
        cfg_path.write_text(EDGE_BASE + _config_line(section, name, inside))
        load_run_config(cfg_path)

    @pytest.mark.parametrize("text, key", [pytest.param(t, k, id=i) for i, t, k in BAD_CONFIGS])
    def test_bad_config(self, tmp_path, capsys, text, key):
        _assert_rejected_by_gen(tmp_path, capsys, text, key)


@pytest.mark.parametrize("case, write", [
    ("missing", lambda path: None),
    ("not_utf8", lambda path: path.write_bytes(b"# \xff\n")),
    ("directory", lambda path: path.mkdir()),
])
def test_unreadable_config_is_exit_2(tmp_path, case, write):
    cfg_path = tmp_path / "c.cfg"
    write(cfg_path)
    env = dict(os.environ, PYTHONPATH=str(Path(weaksv.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "weaksv", "gen", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()


def _settings(cfg):
    """A RunConfig's settings, without the run directory and the snapshot text."""
    return {k: v for k, v in vars(cfg).items() if k not in ("out", "text")}


def test_snapshot_reloads_to_the_run_config(tmp_path):
    """config.snapshot holds the file's keys plus --seed/--preset, never an --out path."""
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("out = elsewhere\n" + SMALL + "[stage1]\nlr_max = 0.0123456789  # comment\n")
    for sub in ("a", "b"):
        assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / sub), "--seed", "5"]) == 0
    snapshot = tmp_path / "a" / "config.snapshot"
    assert snapshot.read_bytes() == (tmp_path / "b" / "config.snapshot").read_bytes()
    text = snapshot.read_text()
    assert "seed = 5\n" in text and "out =" not in text and "comment" not in text
    reloaded = load_run_config(snapshot)
    assert _settings(reloaded) == _settings(load_run_config(cfg_path, seed=5))
    assert (reloaded.seed, reloaded.stage1.lr_max) == (5, 0.0123456789)

    # no config file: only the overrides, so the preset's own keys apply on reload
    cfg = load_run_config(None, preset="pyannote-like", out=str(tmp_path / "c"))
    assert cfg.text == "[diar]\npreset = pyannote-like\n"
    cfg_path.write_text(cfg.text)
    assert _settings(load_run_config(cfg_path)) == _settings(cfg)
    assert (cfg.diar.purity, cfg.diar.split_factor) == (0.97, 1.2)
    assert load_run_config(None).text == ""
    # an out the file sets is recorded when no --out replaces it
    cfg_path.write_text("out = elsewhere\n")
    assert load_run_config(cfg_path).text == "out = elsewhere\n"


def _edit_idx(run, edit):
    edit_index(run / "corpus.idx", edit)


def _patch_idx(run, edit):
    path = run / "corpus.idx"
    path.write_bytes(edit(path.read_bytes()))


def _share_first_member(a):
    """Add the first cluster's first member to the second cluster too."""
    a["members"] = np.insert(a["members"], a["sizes"][0], a["members"][0])
    a["sizes"][1] += 1


def _add_member(a, member):
    """Add member to the first cluster."""
    a["members"] = np.insert(a["members"], a["sizes"][0], member)
    a["sizes"][0] += 1


def _add_empty_cluster(a):
    """Give the first recording one more cluster, empty."""
    a["sizes"] = np.insert(a["sizes"], a["n_clusters"][0], 0)
    a["n_clusters"][0] += 1


def _empty_first_recording(a):
    """Give the first recording zero clusters, dropping its clusters and their members."""
    k = a["n_clusters"][0]
    a["members"] = a["members"][a["sizes"][:k].sum():]
    a["sizes"], a["n_clusters"][0] = a["sizes"][k:], 0


def _retarget_first_recording(a):
    """Give the first recording a target that none of its segments voices."""
    voiced = set(a["oracle"][a["members"][:a["sizes"][:a["n_clusters"][0]].sum()]].tolist())
    a["targets"][0] = min(set(range(len(voiced) + 1)) - voiced)


def _shift_speakers(a):
    """Renumber every speaker s to s + 1 in targets and oracle labels: no recording targets 0."""
    for name in ("targets", "oracle"):
        a[name][a[name] >= 0] += 1


def _empty_first_segment(a):
    """Give segment 0 no frames and its rows to segment 1, so the segments still tile."""
    a["n_frames"][:2] = [0, a["n_frames"][:2].sum()]


def _count_one_more_recording(raw):
    """Raise the header's recording count by one."""
    return raw[:8] + struct.pack("<Q", struct.unpack_from("<Q", raw, 8)[0] + 1) + raw[16:]


CORRUPTIONS = {
    "index_bad_magic": lambda run: _patch_idx(run, lambda raw: b"XXXX" + raw[4:]),
    "index_bad_version": lambda run: _patch_idx(run, lambda raw: raw[:4] + struct.pack("<I", 99) + raw[8:]),
    "index_cut_short": lambda run: _patch_idx(run, lambda raw: raw[:-8]),
    "index_trailing_byte": lambda run: _patch_idx(run, lambda raw: raw + b"\0"),
    "zero_frames": lambda run: _edit_idx(run, lambda a: a["n_frames"].__setitem__(0, 0)),
    "negative_frame_count": lambda run: _edit_idx(run, lambda a: a["n_frames"].__setitem__(0, -1)),
    "nan_feature": lambda run: _edit_idx(run, lambda a: a["means"].__setitem__((0, 7), np.nan)),
    # header D = 0 and no means, so the file has the size its counts give
    "zero_feat_dim": lambda run: _edit_idx(run, lambda a: a.__setitem__("means", a["means"][:, :0])),
    "index_count_off": lambda run: _patch_idx(run, _count_one_more_recording),
    "member_not_a_segment": lambda run: _edit_idx(run, lambda a: _add_member(a, 99999)),
    "member_in_two_clusters": lambda run: _edit_idx(run, _share_first_member),
    "heldout_flag_2": lambda run: _edit_idx(run, lambda a: a["heldout"].__setitem__(0, 2)),
    "negative_target": lambda run: _edit_idx(run, lambda a: a["targets"].__setitem__(0, -1)),
    "duplicate_recording_id": lambda run: _edit_idx(run, lambda a: a["ids"].__setitem__(1, a["ids"][0])),
    "extra_declared_cluster": lambda run: _edit_idx(run, _add_empty_cluster),
    "zero_cluster_recording": lambda run: _edit_idx(run, _empty_first_recording),
    "retargeted_recording": lambda run: _edit_idx(run, _retarget_first_recording),
    "untargeted_speaker": lambda run: _edit_idx(run, _shift_speakers),
    "empty_segment": lambda run: _edit_idx(run, _empty_first_segment),
    "oracle_past_speakers": lambda run: _edit_idx(run, lambda a: a["oracle"].__setitem__(0, 1000)),
    "sizes_not_adding_up": lambda run: _edit_idx(run, lambda a: a["sizes"].__setitem__(0, a["sizes"][0] + 1)),
}

# the validate_corpus issue kind a corruption must be reported as
CONTRACT_KINDS = {
    "empty_segment": "EmptySegment",
    "nan_feature": "NonFiniteFeatures",
    "oracle_past_speakers": "BadOracle",
    "negative_target": "BadTarget",
    "duplicate_recording_id": "DuplicateRecording",
    "zero_cluster_recording": "EmptyRecording",
    "extra_declared_cluster": "EmptyCluster",
    "member_not_a_segment": "MissingSegment",
    "member_in_two_clusters": "DuplicateSegment",
    "retargeted_recording": "MissingTargetSpeech",
    "untargeted_speaker": "UntargetedSpeaker",
}


class TestCorruptArtifact:
    """A damaged corpus is reported as an error, never as a traceback."""

    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corrupt")
        cfg_path = root / "small.cfg"
        cfg_path.write_text(SMALL)
        out = root / "gen"
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        return cfg_path, out

    # -O strips assert statements, so the checks must not rely on them
    @pytest.mark.parametrize("case, flags", [
        *(pytest.param(case, [], id=case) for case in CORRUPTIONS),
        pytest.param("sizes_not_adding_up", ["-O"], id="sizes_not_adding_up-O"),
    ])
    def test_diar_reports_error(self, generated, tmp_path, case, flags):
        cfg_path, clean = generated
        run = tmp_path / "run"
        shutil.copytree(clean, run)
        CORRUPTIONS[case](run)
        stderr = _assert_reported_error(flags, "diar", cfg_path, run)
        if case in CONTRACT_KINDS:
            assert f": {CONTRACT_KINDS[case]}: " in stderr, stderr


def _assert_reported_error(flags, command, cfg_path, run, *args):
    """Run one CLI command in a fresh interpreter: exit 1, an error: line, no traceback; returns stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(weaksv.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "weaksv", command, "--config", str(cfg_path),
         "--out", str(run), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    return proc.stderr


def _prepend(line):
    return lambda data: line.encode() + b"\n" + data


# eval of stage 2 alone, so the report reads the run's own eval_stage1.json
EVAL_STAGE2 = "eval --checkpoint {run}/stage2.ckpt"

# case -> (command, artifact, edit of its bytes); ids index the segment table,
# so a negative or past-the-end one would read another segment's row
ARTIFACT_CORRUPTIONS = {
    "trials_id_past_end": ("eval", "trials.tsv", _prepend("99999\t0\t1")),
    "trials_negative_id": ("eval", "trials.tsv", _prepend("0\t-1\t0")),
    "trials_missing_field": ("eval", "trials.tsv", _prepend("0\t1")),
    "trials_non_integer": ("eval", "trials.tsv", _prepend("0\t1.5\t0")),
    "trials_bad_label": ("eval", "trials.tsv", _prepend("0\t1\t2")),
    "trials_not_utf8": ("eval", "trials.tsv", lambda data: b"0\t\xff1\t1\n" + data),
    "selection_id_past_end": ("train2", "selection.jsonl", _prepend('{"segment_id": 99999, "label": 0}')),
    "selection_negative_id": ("train2", "selection.jsonl", _prepend('{"segment_id": -1, "label": 0}')),
    "selection_negative_label": ("train2", "selection.jsonl", _prepend('{"segment_id": 0, "label": -1}')),
    "selection_label_past_end": ("train2", "selection.jsonl", _prepend('{"segment_id": 0, "label": 6}')),
    "selection_cut_mid_line": ("train2", "selection.jsonl", lambda data: data.rstrip(b"\n")[:-4]),
    "selection_not_utf8": ("train2", "selection.jsonl", lambda data: data.replace(b'"label"', b'"\xffabel"', 1)),
    "selection_missing_key": ("train2", "selection.jsonl", _prepend('{"segment_id": 0}')),
    "selection_non_integer": ("train2", "selection.jsonl", _prepend('{"segment_id": "0", "label": 0}')),
    "selection_not_a_record": ("train2", "selection.jsonl", _prepend("[0, 0]")),
    "unknown_pool_id_past_end": ("train2", "unknown_pool.jsonl", _prepend('{"segment_id": 99999}')),
    "unknown_pool_negative_id": ("train2", "unknown_pool.jsonl", _prepend('{"segment_id": -1}')),
    "unknown_pool_non_integer": ("train2", "unknown_pool.jsonl", _prepend('{"segment_id": 0.5}')),
    "metrics_cut_mid_row": ("eval", "metrics_stage1.csv", lambda data: data[:data.rindex(b",")]),
    "eval_json_cut": (EVAL_STAGE2, "eval_stage1.json", lambda data: data[:len(data) // 2]),
    "selection_stats_cut": ("eval", "selection_stats.json", lambda data: data[:len(data) // 2]),
}


@pytest.mark.parametrize("case", ARTIFACT_CORRUPTIONS)
def test_bad_secondary_artifact_is_an_error(run_dir, tmp_path, capsys, case):
    command, name, edit = ARTIFACT_CORRUPTIONS[case]
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / name).write_bytes(edit((run / name).read_bytes()))
    cfg_path = tmp_path / "unknown.cfg"  # train2 reads the unknown pool too
    cfg_path.write_text(SMALL + "\n[stage2]\nunknown_start_epoch = 2\n")
    argv = [word.format(run=run) for word in command.split()]
    assert main([*argv, "--config", str(cfg_path), "--out", str(run)]) == 1
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


def _flag_first_nontarget(run, data):
    lines = data.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.endswith(b"\t0\n"))
    lines[at] = lines[at][:-2] + b"1\n"
    return b"".join(lines)


def _edit_first_selection(edit):
    def damage(run, data):
        first, rest = data.split(b"\n", 1)
        record = json.loads(first)
        edit(run, record)
        return json.dumps(record).encode() + b"\n" + rest
    return damage


def _next_label(run, record):
    record["label"] = (record["label"] + 1) % 6


def _held_out_segment(run, record):  # a trial's enroll side is a held-out segment
    record["segment_id"] = int((run / "trials.tsv").read_text().split("\t")[0])


# case -> (commands, artifact, edit of its bytes given the run directory): rows that pass every range
# check but contradict the corpus, as split_trials and self_label never write them
CORPUS_CONTRADICTIONS = {
    "trials_nontarget_flagged_1": (("eval", "ablate"), "trials.tsv", _flag_first_nontarget),
    "selection_label_not_the_target": (("train2",), "selection.jsonl", _edit_first_selection(_next_label)),
    "selection_segment_held_out": (("train2",), "selection.jsonl", _edit_first_selection(_held_out_segment)),
}


@pytest.mark.parametrize("case", CORPUS_CONTRADICTIONS)
def test_row_contradicting_the_corpus_is_an_error(run_dir, tmp_path, case):
    """Each command exits 1 with one error: line naming the file, and leaves the run directory as it was."""
    commands, name, damage = CORPUS_CONTRADICTIONS[case]
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    path = run / name
    damaged = damage(run, path.read_bytes())
    assert damaged != path.read_bytes()
    path.write_bytes(damaged)
    before = _tree(run)
    for command in commands:
        stderr = _assert_reported_error([], command, run_dir.parent / "small.cfg", run, "--seed", "5")
        assert len(stderr.splitlines()) == 1 and name in stderr, (command, stderr)
        assert _tree(run) == before, command


# a second tiny corpus -> SMALL with these edits; its stage-1 checkpoint must not pass as SMALL's
OTHER_CORPORA = {
    "more_speakers": [("n_speakers = 6", "n_speakers = 8")],
    "fewer_speakers": [("n_speakers = 6", "n_speakers = 4")],
    "other_feat_dim": [("[synth]\n", "[synth]\nfeat_dim = 12\n")],
}


@pytest.fixture(scope="module")
def other_checkpoints(tmp_path_factory):
    """name -> stage1.ckpt trained for one epoch on each of OTHER_CORPORA."""
    root = tmp_path_factory.mktemp("other")
    paths = {}
    for name, edits in OTHER_CORPORA.items():
        text = SMALL.replace("epochs = 8", "epochs = 1")
        for old, new in edits:
            text = text.replace(old, new)
        cfg_path, out = root / f"{name}.cfg", root / name
        cfg_path.write_text(text)
        for cmd in ("gen", "train1"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        paths[name] = out / "stage1.ckpt"
    return paths


@pytest.mark.parametrize("command, other", [
    ("select", "more_speakers"),  # exited 0 with a selection by the other corpus's model
    ("select", "fewer_speakers"),  # an IndexError traceback
    ("select", "other_feat_dim"),
    ("eval", "other_feat_dim"),  # a matmul traceback
])
def test_checkpoint_of_another_corpus_is_an_error(run_dir, other_checkpoints, tmp_path, capsys, command, other):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    shutil.copyfile(other_checkpoints[other], run / "stage1.ckpt")
    before = _tree(run)
    assert main([command, "--config", str(run_dir.parent / "small.cfg"), "--out", str(run), "--seed", "5"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "stage1.ckpt was trained on" in errors[0], errors
    assert _tree(run) == before


def test_eval_scores_a_checkpoint_of_another_speaker_count(run_dir, other_checkpoints, tmp_path):
    """Scoring reads embeddings only, so a checkpoint with the corpus's feature dimension is scored."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    other = other_checkpoints["more_speakers"]
    assert main(["eval", "--config", str(run_dir.parent / "small.cfg"), "--out", str(run),
                 "--checkpoint", str(other)]) == 0
    assert json.loads((run / "eval_stage1.json").read_text())["checkpoint"] == "stage1.ckpt"


def _optimizer_offset(raw):
    """Where a checkpoint's optimizer section starts: after the 24-byte header and the parameters."""
    feat, hidden, emb, n_speakers = struct.unpack_from("<4I", raw, 8)
    return 24 + 8 * (hidden * feat + hidden + emb * hidden + emb + n_speakers * emb)


CHECKPOINT_CORRUPTIONS = {
    "truncated": lambda raw: raw[:len(raw) // 2],
    "bad_magic": lambda raw: b"XXXX" + raw[4:],
    "trailing_bytes": lambda raw: raw + b"\x00" * 8,
    "cut_at_optimizer": lambda raw: raw[:_optimizer_offset(raw)],
}


@pytest.mark.parametrize("case", CHECKPOINT_CORRUPTIONS)
def test_select_reports_corrupt_checkpoint(run_dir, tmp_path, case):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    ckpt = run / "stage1.ckpt"
    ckpt.write_bytes(CHECKPOINT_CORRUPTIONS[case](ckpt.read_bytes()))
    _assert_reported_error([], "select", run_dir.parent / "small.cfg", run)


@pytest.mark.parametrize("command", ["select", "eval"])
def test_checkpoint_holding_nan_is_an_error(run_dir, tmp_path, capsys, command):
    """A NaN weight would score every trial NaN (an EER of 50%) and write `"score": NaN` selection lines."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    ckpt = run / "stage1.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[24:32] = struct.pack("<d", float("nan"))  # the first W1 value, after the 24-byte header
    ckpt.write_bytes(bytes(raw))
    before = _tree(run)
    assert main([command, "--config", str(run_dir.parent / "small.cfg"), "--out", str(run), "--seed", "5"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "holds a parameter that is not finite" in errors[0], errors
    assert _tree(run) == before


def test_checkpoint_that_is_a_directory_is_an_error(run_dir, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / "stage1.ckpt").unlink()
    (run / "stage1.ckpt").mkdir()
    stderr = _assert_reported_error([], "select", run_dir.parent / "small.cfg", run)
    assert f"error: {run / 'stage1.ckpt'}: " in stderr


def test_gen_out_that_is_a_file_is_an_error(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "run"
    out.write_text("not a run directory\n")
    _assert_reported_error([], "gen", cfg_path, out)
    assert out.read_text() == "not a run directory\n"


def _tree(run):
    return {path.relative_to(run): path.read_bytes() for path in sorted(run.rglob("*")) if path.is_file()}


def test_no_stage_after_gen_reads_corpus_feat(run_dir, tmp_path):
    """corpus.idx holds what every later stage reads: without corpus.feat each runs to the same bytes."""
    cfg_path = run_dir.parent / "small.cfg"
    run = tmp_path / "run"
    assert main(["gen", "--config", str(cfg_path), "--out", str(run)]) == 0
    (run / "corpus.feat").unlink()
    for cmd in ("diar", "train1", "select", "train2", "eval"):
        assert main([cmd, "--config", str(cfg_path), "--out", str(run)]) == 0, cmd
    clean = _tree(run_dir)
    del clean[Path("corpus.feat")]
    assert _tree(run) == clean


def test_gen_that_fails_its_checks_leaves_no_file(tmp_path, monkeypatch, capsys):
    # gen renders corpus.feat inside its write, so the check must come before the rename
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMALL)
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    assert main(["gen", "--config", str(cfg_path), "--out", str(existing)]) == 0
    before = _tree(existing)
    monkeypatch.setattr(weaksv.cli, "validate_corpus",
                        lambda corpus: [ValidationIssue("EmptySegment", "segment 0 has no frames")])
    for out in (fresh, existing):
        assert main(["gen", "--config", str(cfg_path), "--out", str(out), "--seed", "7"]) == 1
        assert "generated corpus failed validation" in capsys.readouterr().err
    assert not fresh.exists()
    assert sorted(p.name for p in existing.iterdir()) == sorted(str(name) for name in before)
    assert _tree(existing) == before


# A CLI command in a fresh interpreter that prints its peak resident memory in KiB. The
# peak is VmHWM, the high-water mark of the process's own address space: ru_maxrss would
# also count the process that started it, since Linux carries that mark across exec.
_PEAK_CHILD = ("import sys; from weaksv.cli import main; code = main(sys.argv[1:]); "
               "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); sys.exit(code)")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_peak_memory_does_not_follow_the_frame_matrix(tmp_path):
    """gen and diar never hold the frame matrix: 4x the speakers grows corpus.feat by about 12 MB,
    and each command's peak, taken in a fresh process, by less than half of that."""
    env = dict(os.environ, PYTHONPATH=str(Path(weaksv.__file__).resolve().parents[1]))
    peak, feat_size = {}, {}
    for n_speakers in (40, 160):
        cfg_path = tmp_path / f"n{n_speakers}.cfg"
        cfg_path.write_text(f"[synth]\nn_speakers = {n_speakers}\n")
        out = tmp_path / f"run{n_speakers}"
        for cmd in ("gen", "diar"):
            proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, cmd, "--config", str(cfg_path),
                                   "--out", str(out)], capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            peak[cmd, n_speakers] = int(proc.stdout.split()[-1]) * 1024
        feat_size[n_speakers] = (out / "corpus.feat").stat().st_size
    growth = feat_size[160] - feat_size[40]
    assert growth > 10 << 20
    for cmd in ("gen", "diar"):
        assert peak[cmd, 160] - peak[cmd, 40] < growth / 2, (cmd, peak, growth)


@pytest.mark.parametrize("case", ["checkpoint_missing", "second_checkpoint_truncated"])
def test_eval_reads_every_input_before_writing(run_dir, tmp_path, case):
    """A failed eval leaves the run directory as it was: no new snapshot, scores or eval files."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    args = ["--seed", "5"]  # config.snapshot would change if eval wrote it
    if case == "checkpoint_missing":
        args += ["--checkpoint", str(run / "missing.ckpt")]
    else:
        (run / "stage2.ckpt").write_bytes((run / "stage2.ckpt").read_bytes()[:100])
    before = _tree(run)
    _assert_reported_error([], "eval", run_dir.parent / "small.cfg", run, *args)
    assert _tree(run) == before


def _replace_last_loss(data):
    head, last = data.rstrip(b"\n").rsplit(b"\n", 1)
    return head + b"\n" + last.rsplit(b",", 1)[0] + b",nan\n"


def _set_json(key, constant):
    return lambda data: re.sub(rb'("%s": )[^,}\n]+' % key.encode(), rb"\g<1>" + constant.encode(), data, count=1)


# case -> (damaged file, damage, eval's extra arguments); eval rewrites the eval files of the checkpoints it
# scores, ablate only its ablation/ runs
REPORT_INPUT_DAMAGE = {
    "metrics_cut_mid_row": ("metrics_stage1.csv", lambda data: data[:-3], []),
    "metrics_loss_nan": ("metrics_stage1.csv", _replace_last_loss, []),
    "eval_eer_nan": ("eval_stage1.json", _set_json("eer", "NaN"), ["--checkpoint", "stage2.ckpt"]),
    "selection_infinity": ("selection_stats.json", _set_json("precision", "Infinity"), []),
    # the header and two rows: well-formed, but stage1.ckpt took more steps than two
    "metrics_cut_at_row": ("metrics_stage1.csv", lambda data: b"".join(data.splitlines(keepends=True)[:3]), []),
    "metrics_header_only": ("metrics_stage1.csv", lambda data: data.splitlines(keepends=True)[0], []),
}


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_report_inputs_are_read_before_writing(run_dir, tmp_path, command):
    """A damaged report input that the command does not write itself fails it before its first write."""
    for case, (name, damage, eval_args) in REPORT_INPUT_DAMAGE.items():
        run = tmp_path / case
        shutil.copytree(run_dir, run)
        path = run / name
        damaged = damage(path.read_bytes())
        assert damaged != path.read_bytes(), case
        path.write_bytes(damaged)
        args = [arg if arg.startswith("--") else str(run / arg) for arg in eval_args] if command == "eval" else []
        before = _tree(run)
        stderr = _assert_reported_error([], command, run_dir.parent / "small.cfg", run, "--seed", "5", *args)
        assert name in stderr, (case, stderr)
        assert _tree(run) == before, case


def test_eval_rewrites_a_damaged_eval_file(run_dir, tmp_path):
    """eval does not read the eval files it writes: a damaged one is replaced, and the report is the clean run's."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    damaged = run / "eval_stage1.json"
    damaged.write_bytes(damaged.read_bytes()[:10])
    assert main(["eval", "--config", str(run_dir.parent / "small.cfg"), "--out", str(run)]) == 0
    assert _tree(run) == _tree(run_dir)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            for cmd in ("gen", "diar", "train1", "select"):
                assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("corpus.idx", "corpus.feat", "stage1.ckpt", "selection.jsonl",
                     "metrics_stage1.csv", "unknown_pool.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main(["gen", "--config", str(cfg_path), "--out", str(b), "--seed", "123"]) == 0
        assert (a / "corpus.feat").read_bytes() != (b / "corpus.feat").read_bytes()


def test_ablate_emits_grid(tmp_path, monkeypatch):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMALL + "\n[stage1]\nepochs = 4\n")
    out = tmp_path / "run"
    for cmd in ("gen", "diar"):
        assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
    plan_calls, plan = [], weaksv.trainer.plan_epoch_stage1
    monkeypatch.setattr(weaksv.trainer, "plan_epoch_stage1", lambda *a: plan_calls.append(a) or plan(*a))
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(plan_calls) == 4  # one plan per stage-1 epoch, shared by the six variants
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["ablation"]) == [
        "m1", "m2", "m3", "m4", "m5", "m6", "stage2_plain", "stage2_unknown"]
    for name in ("m1", "m6"):
        assert "stage1" in report["ablation"][name]["evals"]
    assert "stage2" in report["ablation"]["stage2_unknown"]["evals"]


def test_ablate_that_fails_in_a_later_variant_writes_no_grid(tmp_path, monkeypatch, capsys):
    """A loss that fails after one variant's full step count exits 1 and leaves no ablation/ tree."""
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMALL + "\n[stage1]\nepochs = 4\n")
    out = tmp_path / "run"
    for cmd in ("gen", "diar"):
        assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = load_run_config(str(cfg_path), out=str(out))
    steps = sum(len(plan) for plan in weaksv.trainer.plan_stage1(load_manifest(out), cfg.stage1, cfg.seed))
    calls, aggregate = [], weaksv.trainer.aggregate

    def fail_after_one_variant(*args, **kwargs):
        calls.append(None)
        if len(calls) > steps:
            raise NonFiniteGradient("non-finite loss injected")
        return aggregate(*args, **kwargs)

    monkeypatch.setattr(weaksv.trainer, "aggregate", fail_after_one_variant)
    capsys.readouterr()
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: non-finite loss injected"]
    assert not (out / "ablation").exists()


def test_diar_preset_flag(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / "run"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["diar", "--config", str(cfg_path), "--out", str(out),
                 "--preset", "pyannote-like"]) == 0
    corpus = load_manifest(out)
    assert max(len(r.clusters) for r in corpus.recordings) <= 4


def test_diar_preset_flag_keeps_explicit_keys(tmp_path):
    """`diar --preset P` resolves like a config naming `preset = P`: keys set in the config win."""
    runs = {}
    for name, diar_text, flags in (("flag", "max_clusters = 6\n", ["--preset", "pyannote-like"]),
                                   ("named", "preset = pyannote-like\nmax_clusters = 6\n", [])):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(SMALL + "[synth]\nsegments_per_recording = 10..12\n[diar]\n" + diar_text)
        out = tmp_path / name
        assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["diar", "--config", str(cfg_path), "--out", str(out), *flags]) == 0
        runs[name] = (out / "corpus.idx").read_bytes()

    assert runs["flag"] == runs["named"]
    # the explicit cap, not the preset's 4, bounds the clusters
    assert max(len(r.clusters) for r in load_manifest(tmp_path / "flag").recordings) > 4
