"""Record the benchmark's figures for one source tree in BENCH_<label>.json.

Usage (from the repository root):

    python3 scripts/bench_record.py --label parent --tree ../weaksv-parent
    python3 scripts/bench_record.py --label change

For every workload it runs the tree's `bench/run.py` twice at one seed:
with `--trace 0` for the end-to-end metrics and with `--trace 1` for the
per-layer ones. The file holds:
- `env`: Python, numpy, BLAS and its thread settings, cores, commit and
  code digest, as the harness reports them;
- per workload, `end_to_end`: the harness's metrics, plus `wall_s` and
  each CLI stage's time as the median and quartiles over the untraced
  passes (from the harness's per-pass stage times);
- per workload, `per_layer`: the traced run's spans and counts.

It then compares the file with a previous one (`--previous`, by default
the newest other BENCH_*.json next to it) and lists in `flags`:
- every timing with quartiles whose median lies outside the previous
  file's interquartile range;
- every deterministic figure (counts, losses, quality, success rate)
  that differs at all.
Figures the harness reports as one number with no spread (setup_s,
peak_rss_mib and the per-layer timings) are listed as ratios under
`ratios` and are not flagged: one run gives no range to compare with.
Two files are comparable only when they were taken back to back on the
same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pipeline", "ablate", "scale")
# Harness figures with a single value and no spread: compared as ratios only.
UNSPREAD = ("setup_s", "peak_rss_mib")


def run_harness(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(full record, result line) of one bench/run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def record_workload(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(env, figures) of one workload: an untraced run, then a traced one."""
    record, result = run_harness(tree, workload, seed, seconds, trace=0)
    if not result["correct"]:
        raise SystemExit(f"{workload}: the untraced run failed: {record['problems'][:3]}")
    passes = record["stage_s_per_pass"]
    end_to_end = {name: m["value"] for name, m in result["metrics"].items()}
    end_to_end["wall_s"] = spread([sum(p.values()) for p in passes])
    end_to_end.update({f"stage.{stage}_s": spread([p[stage] for p in passes]) for stage in passes[0]})

    traced_record, traced = run_harness(tree, workload, seed, seconds, trace=1)
    if not traced["correct"]:
        raise SystemExit(f"{workload}: the traced run failed: {traced_record['problems'][:3]}")
    per_layer = {name: m["value"] for name, m in traced["metrics"].items()}
    return record["env"], {"passes": record["passes"], "traced_passes": traced_record["passes"],
                           "end_to_end": end_to_end, "per_layer": per_layer}


def is_timing(name: str) -> bool:
    return name.endswith("_s") or name.endswith("_per_s")


def compare(new: dict, old: dict) -> tuple[list[str], dict[str, float]]:
    """Flags for figures that moved past the old file's spread, and ratios of the unspread ones."""
    flags, ratios = [], {}
    for workload, figures in new["workloads"].items():
        before = old.get("workloads", {}).get(workload)
        if before is None:
            continue
        for group in ("end_to_end", "per_layer"):
            for name, value in figures[group].items():
                if name not in before[group]:
                    continue
                was, where = before[group][name], f"{workload} {name}"
                if isinstance(was, dict):
                    if not was["q1"] <= value["median"] <= was["q3"]:
                        flags.append(f"{where}: median {value['median']:.4g} outside the previous "
                                     f"IQR {was['q1']:.4g}..{was['q3']:.4g} (median {was['median']:.4g})")
                elif name in UNSPREAD or is_timing(name):
                    if was:
                        ratios[where] = value / was
                elif value != was:
                    flags.append(f"{where}: {was!r} -> {value!r}")
    return flags, ratios


def previous_file(out: Path, explicit: str | None) -> Path | None:
    if explicit:
        return Path(explicit)
    others = [p for p in out.parent.glob("BENCH_*.json") if p.resolve() != out.resolve()]
    stamps = {p: json.loads(p.read_text("utf-8")).get("recorded_at", "") for p in others}
    return max(others, key=lambda p: (stamps[p], p.name), default=None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--tree", default=str(ROOT), help="source tree whose bench/run.py runs")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=20.0, help="--seconds of each harness run")
    parser.add_argument("--out-dir", default=str(ROOT))
    parser.add_argument("--previous", default=None, help="BENCH_*.json to compare with")
    args = parser.parse_args(argv)

    tree = Path(args.tree).resolve()
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    doc = {"label": args.label, "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        env, doc["workloads"][workload] = record_workload(tree, workload, args.seed, args.seconds)
        doc.setdefault("env", env)
        print(f"{workload}: wall_s median {doc['workloads'][workload]['end_to_end']['wall_s']['median']:.3f} s",
              flush=True)

    previous = previous_file(out, args.previous)
    if previous is not None:
        doc["compared_with"] = previous.name
        doc["flags"], doc["ratios"] = compare(doc, json.loads(previous.read_text("utf-8")))
        for flag in doc["flags"]:
            print(f"FLAG {flag}")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
