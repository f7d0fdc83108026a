"""Record the benchmark's figures for a source tree, or for a parent and a change tree in turn, in BENCH_<label>.json.

Usage (from the repository root):

    python3 scripts/bench_record.py --label change
    python3 scripts/bench_record.py --label change --parent-label parent --parent-tree ../weaksv-parent

For every workload it runs the tree's `bench/run.py` twice at one seed:
with `--trace 0` for the end-to-end metrics and with `--trace 1` for the
per-layer ones. Given a parent tree as well, it records both trees in one
invocation, alternating between them run by run with the first tree
flipping at every step, and writes one file for each. The file holds:
- `env`: Python, numpy, BLAS and its thread settings, cores, commit and
  code digest, as the harness reports them;
- per workload, `end_to_end`: the harness's metrics, plus `wall_s` and
  each CLI stage's time as the median and quartiles over the untraced
  passes (from the harness's per-pass stage times);
- per workload, `per_layer`: the traced run's spans and counts.

It then compares the file with a previous one and lists in `flags`:
- every timing with quartiles whose median lies outside the previous
  file's interquartile range;
- every deterministic figure (counts, losses, quality, success rate)
  that differs at all.
Figures the harness reports as one number with no spread (setup_s,
peak_rss_mib and the per-layer timings) are listed as ratios under
`ratios` and are not flagged: one run gives no range to compare with.
The previous file is `--previous`, else the newest other BENCH_*.json
beside it; with a parent tree, the change is compared with the parent's
file, and the parent's file with that previous one. Two files are
comparable only when they were taken back to back on the same machine,
and best in one alternating invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
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


def end_to_end_figures(workload: str, record: dict, result: dict) -> dict:
    """The untraced run's metrics, plus wall_s and each stage's time as median and quartiles."""
    if not result["correct"]:
        raise SystemExit(f"{workload}: the untraced run failed: {record['problems'][:3]}")
    passes = record["stage_s_per_pass"]
    figures = {name: m["value"] for name, m in result["metrics"].items()}
    figures["wall_s"] = spread([sum(p.values()) for p in passes])
    figures.update({f"stage.{stage}_s": spread([p[stage] for p in passes]) for stage in passes[0]})
    return figures


def per_layer_figures(workload: str, record: dict, result: dict) -> dict:
    if not result["correct"]:
        raise SystemExit(f"{workload}: the traced run failed: {record['problems'][:3]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def record_trees(trees: dict[str, Path], seed: int, seconds: float) -> dict[str, dict]:
    """label -> figures of every tree: an untraced, then a traced harness run per workload.

    With two trees the runs alternate between them, and the tree that goes
    first flips at every step, so a host that speeds up or slows down
    during the recording weighs on both trees alike.
    """
    docs = {label: {"label": label, "seed": seed, "seconds": seconds, "workloads": {}} for label in trees}
    order = list(trees)
    for workload in WORKLOADS:
        for trace in (0, 1):
            for label in order:
                record, result = run_harness(trees[label], workload, seed, seconds, trace)
                docs[label].setdefault("env", record["env"])
                figures = docs[label]["workloads"].setdefault(workload, {})
                if trace == 0:
                    figures.update(passes=record["passes"], end_to_end=end_to_end_figures(workload, record, result))
                else:
                    figures.update(traced_passes=record["passes"], per_layer=per_layer_figures(workload, record, result))
            order.reverse()
        for label, doc in docs.items():
            print(f"{label} {workload}: wall_s median {doc['workloads'][workload]['end_to_end']['wall_s']['median']:.3f} s",
                  flush=True)
    return docs


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


def previous_file(out: Path, explicit: str | None, skip: tuple[Path, ...] = ()) -> Path | None:
    """The BENCH file to compare out with: explicit, or the newest other one beside it but those in skip."""
    if explicit:
        return Path(explicit)
    mine = {p.resolve() for p in (out, *skip)}
    others = [p for p in out.parent.glob("BENCH_*.json") if p.resolve() not in mine]
    stamps = {p: json.loads(p.read_text("utf-8")).get("recorded_at", "") for p in others}
    return max(others, key=lambda p: (stamps[p], p.name), default=None)


def write(doc: dict, out: Path, previous: Path | None) -> None:
    """Compare doc with previous, if any, and write it to out, stamped with the time of writing."""
    if previous is not None:
        doc["compared_with"] = previous.name
        doc["flags"], doc["ratios"] = compare(doc, json.loads(previous.read_text("utf-8")))
        for flag in doc["flags"]:
            print(f"FLAG {doc['label']}: {flag}")
    doc["recorded_at"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")  # a pair's change is the newer
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--tree", default=str(ROOT), help="source tree whose bench/run.py runs")
    parser.add_argument("--parent-label", default=None, help="with --parent-tree: names the parent's file")
    parser.add_argument("--parent-tree", default=None,
                        help="record this tree too, alternating with --tree, and compare --tree with it")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=20.0, help="--seconds of each harness run")
    parser.add_argument("--out-dir", default=str(ROOT))
    parser.add_argument("--previous", default=None,
                        help="BENCH_*.json to compare with (the parent's file, with --parent-tree)")
    args = parser.parse_args(argv)
    if (args.parent_label is None) != (args.parent_tree is None):
        parser.error("--parent-label and --parent-tree go together")

    out_dir = Path(args.out_dir)
    trees = {args.label: Path(args.tree).resolve()}
    if args.parent_tree is not None:
        trees = {args.parent_label: Path(args.parent_tree).resolve(), **trees}
    docs = record_trees(trees, args.seed, args.seconds)
    outs = {label: out_dir / f"BENCH_{label}.json" for label in trees}
    previous = previous_file(outs[args.label], args.previous, skip=tuple(outs.values()))
    if args.parent_tree is not None:
        write(docs[args.parent_label], outs[args.parent_label], previous)
        previous = outs[args.parent_label]
    write(docs[args.label], outs[args.label], previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
