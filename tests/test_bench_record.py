"""scripts/bench_record.py: which changes between two BENCH files it flags."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _doc(wall, steps, setup, span, eer=1.0, precision=0.9):
    return {"workloads": {"ablate": {
        "end_to_end": {"wall_s": bench_record.spread(wall), "setup_s": setup, "one_minus_eer_stage1": eer},
        "per_layer": {"trainer.steps1": steps, "batching.plan1_s": span},
        "quality": {"sel_precision": precision},
    }}}


def test_spread_is_median_and_quartiles():
    assert bench_record.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}


def test_flags_a_median_outside_the_previous_iqr_and_any_moved_count():
    old = _doc([1.0, 1.1, 1.2, 1.3, 1.4], 100, 0.2, 0.5)
    inside = _doc([1.15, 1.2, 1.25], 100, 0.3, 0.1)
    assert bench_record.compare(inside, old) == ([], {"ablate setup_s": 0.3 / 0.2,
                                                      "ablate batching.plan1_s": 0.1 / 0.5})
    flags, _ = bench_record.compare(_doc([0.8, 0.9, 1.0], 101, 0.2, 0.5, eer=0.99, precision=0.8), old)
    assert [f.split(":")[0] for f in flags] == ["ablate wall_s", "ablate one_minus_eer_stage1",
                                               "ablate trainer.steps1", "ablate sel_precision"]


def test_previous_file_is_the_newest_other_record(tmp_path):
    for label, stamp in (("a", "2026-01-02T00:00:00Z"), ("b", "2026-01-01T00:00:00Z")):
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps({"recorded_at": stamp}))
    out = tmp_path / "BENCH_c.json"
    assert bench_record.previous_file(out, None).name == "BENCH_a.json"
    assert bench_record.previous_file(tmp_path / "BENCH_a.json", None).name == "BENCH_b.json"
    assert bench_record.previous_file(out, "BENCH_x.json") == Path("BENCH_x.json")


def _fake_harness(monkeypatch, calls):
    """Stand-ins for run_harness, which logs (tree, workload, trace, seconds) and reports one two-pass run
    whose metric and quality read 7, 9 and 8 on a tree's first three rounds, and so on (a traced run also
    reports its quality among its metrics, as the harness does; an untraced run's peak_rss_mib reads one
    more on a tree named p), and for stage_peaks, which logs (tree, workload, "peaks")."""
    def run(tree, workload, seed, seconds, trace):
        calls.append((tree.name, workload, trace, seconds))
        value = (7.0, 9.0, 8.0)[(sum(1 for call in calls if call[:3] == (tree.name, workload, trace)) - 1) % 3]
        record = {"env": {"tree": tree.name}, "passes": 2, "problems": [], "quality": {"eer_stage1": value / 100},
                  "stage_s_per_pass": [{"gen": 1.0, "eval": 2.0}, {"gen": 1.5, "eval": 2.5}]}
        metrics = ({"wall_s": value, "peak_rss_mib": value + (tree.name == "p")} if trace == 0 else
                   {"trainer.steps1": value, "quality.eer_stage1": value / 100})
        return record, {"correct": True, "metrics": {name: {"value": v} for name, v in metrics.items()}}

    def peaks(tree, workload, seed):
        calls.append((tree.name, workload, "peaks"))
        return {"stage.gen_peak_rss_mib": 40.0}

    monkeypatch.setattr(bench_record, "run_harness", run)
    monkeypatch.setattr(bench_record, "stage_peaks", peaks)


def test_two_trees_alternate_with_the_first_flipping(monkeypatch, tmp_path):
    calls = []
    _fake_harness(monkeypatch, calls)
    monkeypatch.setattr(bench_record, "ROUNDS", 3)
    monkeypatch.setattr(bench_record, "kernel_fingerprint", lambda: {"openblas_core": "K"})
    trees = {"parent": tmp_path / "p", "change": tmp_path / "c"}
    docs = bench_record.record_trees(trees, seed=1, seconds=3.0)
    expected, step = [], 0
    for workload in bench_record.WORKLOADS:
        for trace in (0, 1):
            for _ in range(3):  # three rounds of one run per tree, each a third of the seconds
                expected += [(tree, workload, trace, 1.0) for tree in (["p", "c"] if step % 2 == 0 else ["c", "p"])]
                step += 1
            if trace == 0:  # each tree's stage peaks follow its untraced rounds
                expected += [(tree, workload, "peaks") for tree in (["p", "c"] if step % 2 == 0 else ["c", "p"])]
    assert calls == expected
    for label in trees:
        assert docs[label]["env"] == {"tree": trees[label].name, "kernel": {"openblas_core": "K"}}
        figures = docs[label]["workloads"]["scale"]
        # the six passes of three rounds are pooled; one-value figures are the median over the rounds
        assert figures["end_to_end"]["wall_s"] == {"median": 3.5, "q1": 3.0, "q3": 4.0, "n": 6}
        assert figures["end_to_end"]["stage.gen_s"] == {"median": 1.25, "q1": 1.0, "q3": 1.5, "n": 6}
        assert figures["end_to_end"]["stage.gen_peak_rss_mib"] == 40.0
        assert figures["rounds"] == {"peak_rss_mib": [7.0 + (label == "parent"), 9.0 + (label == "parent"),
                                                      8.0 + (label == "parent")]}
        assert figures["per_layer"] == {"trainer.steps1": 8.0}  # the quality figures have a block of their own
        assert figures["quality"] == {"eer_stage1": 0.08}
        assert (figures["passes"], figures["traced_passes"]) == (6, 6)
    assert bench_record.won_rounds(docs["change"], docs["parent"])["scale peak_rss_mib"] == "3/3"
    assert bench_record.won_rounds(docs["parent"], docs["change"])["scale peak_rss_mib"] == "0/3"


def test_kernel_fingerprint_names_the_openblas_core_and_the_simd_targets_show_runtime_reports(capsys):
    kernel = bench_record.kernel_fingerprint()
    assert kernel["openblas_core"] is None or (isinstance(kernel["openblas_core"], str) and kernel["openblas_core"])
    simd = kernel["simd_extensions"]
    assert sorted(simd) == ["baseline", "found", "not_found"]
    assert not set(simd["found"]) & set(simd["not_found"])
    np.show_runtime()
    shown = capsys.readouterr().out
    assert "'simd_extensions'" in shown
    for target in [*simd["baseline"], *simd["found"], *simd["not_found"]]:
        assert f"'{target}'" in shown


def test_kernel_fingerprint_without_a_readable_openblas_has_no_core(monkeypatch, tmp_path):
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").write_bytes(b"not a shared object")
    monkeypatch.setattr(bench_record.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert bench_record.kernel_fingerprint()["openblas_core"] is None


def test_won_rounds_counts_strictly_lower_rounds_pair_by_pair():
    def doc(values):
        return {"workloads": {"scale": {"rounds": {"peak_rss_mib": values}}}}

    assert bench_record.won_rounds(doc([1.0, 2.0, 3.0, 4.0]), doc([2.0, 2.0, 2.0, 5.0])) == {
        "scale peak_rss_mib": "2/4"}


def test_stage_peaks_are_ratios_not_flags():
    old = {"workloads": {"scale": {"end_to_end": {"stage.gen_peak_rss_mib": 80.0}, "per_layer": {}}}}
    new = {"workloads": {"scale": {"end_to_end": {"stage.gen_peak_rss_mib": 50.0}, "per_layer": {}}}}
    assert bench_record.compare(new, old) == ([], {"scale stage.gen_peak_rss_mib": 50.0 / 80.0})


def _stand_in_tree(root):
    """A tree whose workload w runs a stand-in CLI: stage big fills 40 MiB, stage small nothing."""
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "workloads.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass Workload:\n"
        "    stages: tuple\n    configs: dict\n\n\n"
        "WORKLOADS = {'w': Workload((('big', '--flag'), ('small',)), {'full': 'x = 1\\n', 'tiny': ''})}\n")
    package = root / "src" / "weaksv"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "from pathlib import Path\n\n\ndef main(argv):\n"
        "    stage, _, cfg, _, out, _, seed, *extra = argv\n"
        "    assert Path(cfg).read_text() == 'x = 1\\n' and seed == '5', argv\n"
        "    data = b'x' * (40 << 20) if (stage, extra) == ('big', ['--flag']) else b''\n"
        "    print(stage, len(data))\n"
        "    return 0\n")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_stage_peaks_run_each_stage_in_a_fresh_process(tmp_path):
    _stand_in_tree(tmp_path)
    peaks = bench_record.stage_peaks(tmp_path, "w", seed=5)
    assert list(peaks) == ["stage.big_peak_rss_mib", "stage.small_peak_rss_mib"]
    assert peaks["stage.big_peak_rss_mib"] - peaks["stage.small_peak_rss_mib"] > 35


def test_pair_writes_both_files_and_compares_the_change_with_the_parent(monkeypatch, tmp_path):
    (tmp_path / "BENCH_old.json").write_text(json.dumps({"recorded_at": "2026-01-01T00:00:00Z", "workloads": {}}))
    calls = []
    _fake_harness(monkeypatch, calls)
    assert bench_record.main(["--label", "new", "--tree", str(tmp_path / "c"), "--parent-label", "base",
                              "--parent-tree", str(tmp_path / "p"), "--out-dir", str(tmp_path), "--seconds", "1"]) == 0
    rounds = bench_record.ROUNDS  # the runs of one tree, workload and trace mode split --seconds
    assert sum(1 for call in calls if call[2:] == (0, 1 / rounds)) == rounds * 2 * len(bench_record.WORKLOADS)
    base = json.loads((tmp_path / "BENCH_base.json").read_text())
    new = json.loads((tmp_path / "BENCH_new.json").read_text())
    assert (base["compared_with"], new["compared_with"]) == ("BENCH_old.json", "BENCH_base.json")
    assert base["rounds"] == new["rounds"] == rounds
    assert len(new["workloads"]["scale"]["rounds"]["peak_rss_mib"]) == rounds
    assert new["won_rounds"] == {f"{w} peak_rss_mib": f"{rounds}/{rounds}" for w in bench_record.WORKLOADS}
    assert "won_rounds" not in base
    assert bench_record.previous_file(tmp_path / "BENCH_next.json", None).name == "BENCH_new.json"
