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
