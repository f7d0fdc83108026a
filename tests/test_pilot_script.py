"""scripts/pilot_matrix.py on a tiny config: a smoke test, and parity with the CLI.

run_seed chains weaksv.cli's stage steps, the ones the gen, diar, train1,
select, train2 and eval commands run, so its row must be what those
commands make of the same config: the same checkpoints byte for byte, the
same selection and the same EERs. A signature change in the steps breaks
the script; these tests make that a test failure.
"""

import json

import pytest

import weaksv.cli
from weaksv.cli import main
from weaksv.config import load_run_config
from weaksv.embedder import save_checkpoint

from conftest import load_script

TINY = """
[synth]
n_speakers = 8
recordings_per_speaker = 4
segments_per_recording = 4..6
frames_per_segment = 4..8
unknown_speaker_count = 3
[trials]
heldout_fraction = 0.4
n_target = 30
n_nontarget = 30
[stage1]
epochs = 3
batch_size = 24
[stage2]
epochs = 2
batch_size = 24
[select]
top_k = 2
fraction = 0.5
"""


@pytest.fixture(scope="module")
def pilot():
    return load_script("pilot_matrix")


def test_run_seed_on_a_tiny_config(pilot, tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    row = pilot.run_seed(7, load_run_config(cfg_path, seed=7))
    assert row["seed"] == 7
    for key in ("stage1_baseline", "stage1_pyannote-like", "precision", "recall",
                "stage2_plain", "stage2_unknown"):
        assert 0.0 <= row[key] <= 1.0, key
    assert row["pool_size"] > 0


def test_run_seed_rejects_a_config_of_another_seed(pilot):
    with pytest.raises(ValueError):
        pilot.run_seed(7, load_run_config(None, seed=8))


def _recorder(train, saved, tmp_path):
    """train, also writing each checkpoint it returns with save_checkpoint and keeping the bytes in saved."""
    def run(*args, **kwargs):
        result = train(*args, **kwargs)
        path = tmp_path / f"recorded{len(saved)}.ckpt"
        save_checkpoint(result.checkpoint, path)
        saved.append(path.read_bytes())
        return result
    return run


def _cli(cfg_path, out, *commands):
    for command in commands:
        argv = command.split()
        assert main([*argv, "--config", str(cfg_path), "--out", str(out), "--seed", "7"]) == 0, command


def _eer(out, stage):
    return json.loads((out / f"eval_stage{stage}.json").read_text())["eer"]


def test_run_seed_is_the_cli_chain(pilot, tmp_path, monkeypatch):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    cfg = load_run_config(cfg_path, seed=7)
    stage1, stage2 = [], []
    monkeypatch.setattr(pilot, "train_stage1", _recorder(pilot.train_stage1, stage1, tmp_path))
    monkeypatch.setattr(weaksv.cli, "train_stage2", _recorder(weaksv.cli.train_stage2, stage2, tmp_path))
    row = pilot.run_seed(7, cfg)
    monkeypatch.undo()
    assert len(stage1) == 2 and len(stage2) == 2

    for preset in ("baseline", "pyannote-like"):
        out = tmp_path / preset
        _cli(cfg_path, out, "gen", f"diar --preset {preset}", "train1", "eval")
        written = (out / "stage1.ckpt").read_bytes()
        assert any(written == ckpt for ckpt in stage1), f"{preset}: no run_seed checkpoint is stage1.ckpt"
        assert row[f"stage1_{preset}"] == _eer(out, 1), preset

    # stage 2 off the baseline run: train2 as configured (no unknown class), then with the
    # unknown class from epoch epochs // 2
    out = tmp_path / "baseline"
    _cli(cfg_path, out, "select", "train2", "eval")
    assert (out / "stage2.ckpt").read_bytes() == stage2[0], "stage2_plain"
    assert row["stage2_plain"] == _eer(out, 2)
    stats = json.loads((out / "selection_stats.json").read_text())
    assert (row["precision"], row["recall"]) == (stats["precision"], stats["recall"])
    assert row["pool_size"] == len((out / "unknown_pool.jsonl").read_text().splitlines())
    unknown_cfg = tmp_path / "unknown.cfg"
    unknown_cfg.write_text(f"{TINY}\n[stage2]\nunknown_start_epoch = {cfg.stage2.epochs // 2}\n")
    _cli(unknown_cfg, out, "train2", "eval")
    assert (out / "stage2.ckpt").read_bytes() == stage2[1], "stage2_unknown"
    assert row["stage2_unknown"] == _eer(out, 2)
    assert stage1[0] != stage1[1] and stage2[0] != stage2[1]  # each comparison above told two runs apart
