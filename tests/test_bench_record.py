"""scripts/bench_record.py: which changes between two BENCH files it flags."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _doc(wall, steps, setup, span, eer=1.0):
    return {"workloads": {"ablate": {
        "end_to_end": {"wall_s": bench_record.spread(wall), "setup_s": setup, "one_minus_eer_stage1": eer},
        "per_layer": {"trainer.steps1": steps, "batching.plan1_s": span},
    }}}


def test_spread_is_median_and_quartiles():
    assert bench_record.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}


def test_flags_a_median_outside_the_previous_iqr_and_any_moved_count():
    old = _doc([1.0, 1.1, 1.2, 1.3, 1.4], 100, 0.2, 0.5)
    inside = _doc([1.15, 1.2, 1.25], 100, 0.3, 0.1)
    assert bench_record.compare(inside, old) == ([], {"ablate setup_s": 0.3 / 0.2,
                                                      "ablate batching.plan1_s": 0.1 / 0.5})
    flags, _ = bench_record.compare(_doc([0.8, 0.9, 1.0], 101, 0.2, 0.5, eer=0.99), old)
    assert [f.split(":")[0] for f in flags] == ["ablate wall_s", "ablate one_minus_eer_stage1",
                                               "ablate trainer.steps1"]


def test_previous_file_is_the_newest_other_record(tmp_path):
    for label, stamp in (("a", "2026-01-02T00:00:00Z"), ("b", "2026-01-01T00:00:00Z")):
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps({"recorded_at": stamp}))
    out = tmp_path / "BENCH_c.json"
    assert bench_record.previous_file(out, None).name == "BENCH_a.json"
    assert bench_record.previous_file(tmp_path / "BENCH_a.json", None).name == "BENCH_b.json"
    assert bench_record.previous_file(out, "BENCH_x.json") == Path("BENCH_x.json")


def _fake_harness(calls):
    """A run_harness stand-in that logs (tree, workload, trace) and reports one two-pass run."""
    def run(tree, workload, seed, seconds, trace):
        calls.append((tree.name, workload, trace))
        record = {"env": {"tree": tree.name}, "passes": 2, "problems": [],
                  "stage_s_per_pass": [{"gen": 1.0, "eval": 2.0}, {"gen": 1.5, "eval": 2.5}]}
        metric = "wall_s" if trace == 0 else "trainer.steps1"
        return record, {"correct": True, "metrics": {metric: {"value": 7.0}}}
    return run


def test_two_trees_alternate_with_the_first_flipping(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench_record, "run_harness", _fake_harness(calls))
    trees = {"parent": tmp_path / "p", "change": tmp_path / "c"}
    docs = bench_record.record_trees(trees, seed=1, seconds=1.0)
    expected = []
    for k, (workload, trace) in enumerate((w, t) for w in bench_record.WORKLOADS for t in (0, 1)):
        order = ["p", "c"] if k % 2 == 0 else ["c", "p"]
        expected += [(tree, workload, trace) for tree in order]
    assert calls == expected
    for label in trees:
        figures = docs[label]["workloads"]["scale"]
        assert figures["end_to_end"]["wall_s"] == {"median": 3.5, "q1": 3.25, "q3": 3.75, "n": 2}
        assert figures["per_layer"] == {"trainer.steps1": 7.0}


def test_pair_writes_both_files_and_compares_the_change_with_the_parent(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_record, "run_harness", _fake_harness([]))
    (tmp_path / "BENCH_old.json").write_text(json.dumps({"recorded_at": "2026-01-01T00:00:00Z", "workloads": {}}))
    assert bench_record.main(["--label", "new", "--tree", str(tmp_path), "--parent-label", "base",
                              "--parent-tree", str(tmp_path), "--out-dir", str(tmp_path), "--seconds", "1"]) == 0
    base = json.loads((tmp_path / "BENCH_base.json").read_text())
    new = json.loads((tmp_path / "BENCH_new.json").read_text())
    assert (base["compared_with"], new["compared_with"]) == ("BENCH_old.json", "BENCH_base.json")
    assert bench_record.previous_file(tmp_path / "BENCH_next.json", None).name == "BENCH_new.json"
