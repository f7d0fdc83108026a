"""Record the benchmark's figures for a source tree, or for a parent and a change tree in turn, in BENCH_<label>.json.

Usage (from the repository root):

    python3 scripts/bench_record.py --label change
    python3 scripts/bench_record.py --label change --parent-label parent --parent-tree ../weaksv-parent

For every workload it runs the tree's `bench/run.py` at one seed, with
`--trace 0` for the end-to-end metrics and with `--trace 1` for the
per-layer ones, each as ROUNDS (10) short runs that split `--seconds`
between them. Given a parent tree as well, it records both
trees in one invocation, alternating between them run by run with the
first tree flipping at every step, so a burst of host load is spread
over both trees; it writes one file for each. The file holds:
- `env`: Python, numpy, BLAS and its thread settings, cores, commit and
  code digest, as the harness reports them, plus `kernel`: the OpenBLAS
  core numpy's bundled library picked at run time (`openblas_core`, None
  where the library has no `scipy_openblas_get_corename64_`) and numpy's
  `simd_extensions` as `np.show_runtime()` reports them. The harness runs
  under this interpreter, so these are its kernels too;
- per workload, `end_to_end`: the harness's metrics as the median over
  the rounds (`rounds` keeps each round's setup_s and peak_rss_mib
  too), plus `wall_s` and each CLI stage's time as the median and
  quartiles over the untraced passes of all rounds pooled (from the
  harness's per-pass stage times), and each CLI stage's peak resident
  memory as `stage.<stage>_peak_rss_mib`. The harness runs every stage of
  every pass in one process, so its `peak_rss_mib` shows only the
  largest; here each stage runs once more, on its own, in a fresh
  interpreter on the tree's sources (`weaksv.cli.main`, as
  `python -m weaksv` runs it), so every stage's peak shows;
- per workload, `per_layer`: the traced rounds' spans and counts, each
  the median over the rounds;
- per workload, `quality`: EER, minDCF, selection precision and recall
  of the untraced rounds' first good pass (each the median over the
  rounds, though they are deterministic), apart from the timings and
  counts.

It then compares the file with a previous one and lists in `flags`:
- every timing with quartiles whose median lies outside the previous
  file's interquartile range;
- every deterministic figure (counts, losses, the quality block, success
  rate) that differs at all.
Figures with one number and no spread (setup_s, the peak RSS figures
and the per-layer timings) are listed as ratios under `ratios` and are
not flagged: a median of a few rounds gives no range to compare with.
With a parent tree, the change's file also counts under `won_rounds`, for
each per-round figure, the rounds in which the change read lower than the
parent's run of the same round, as "<won>/<rounds>".
The previous file is `--previous`, else the newest other BENCH_*.json
beside it; with a parent tree, the change is compared with the parent's
file, and the parent's file with that previous one. Two files are
comparable only when they were taken back to back on the same machine,
and best in one alternating invocation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import runpy
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("pipeline", "ablate", "scale")
ROUNDS = 10  # harness runs per tree, workload and trace mode: ten pairs for a gain claim
# Name endings of figures with a single value and no spread: compared as ratios only.
UNSPREAD = ("setup_s", "peak_rss_mib")
# A CLI stage in a fresh interpreter that prints its peak resident memory in KiB. The peak is
# VmHWM, the high-water mark of the process's own address space: ru_maxrss would also count
# this script, since Linux carries that mark across exec.
STAGE_CHILD = ("import sys; from weaksv.cli import main; code = main(sys.argv[1:]); "
               "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); sys.exit(code)")


def kernel_fingerprint() -> dict:
    """Which numerical kernels this interpreter's numpy runs: the OpenBLAS core and the SIMD targets."""
    core = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    simd = {"baseline": list(__cpu_baseline__),
            "found": [target for target in __cpu_dispatch__ if __cpu_features__[target]],
            "not_found": [target for target in __cpu_dispatch__ if not __cpu_features__[target]]}
    return {"openblas_core": core, "simd_extensions": simd}


def run_harness(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(full record, result line) of one bench/run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def stage_peaks(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """stage.<stage>_peak_rss_mib of each CLI stage of the tree's full-size workload, each run in a fresh process."""
    spec = runpy.run_path(str(tree / "bench" / "workloads.py"))["WORKLOADS"][workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    peaks = {}
    with tempfile.TemporaryDirectory() as scratch:
        cfg_path, run = Path(scratch) / f"{workload}.cfg", Path(scratch) / "run"
        cfg_path.write_text(spec.configs["full"], encoding="utf-8")
        for stage, *extra in spec.stages:
            proc = subprocess.run(
                [sys.executable, "-c", STAGE_CHILD, stage, "--config", str(cfg_path), "--out", str(run),
                 "--seed", str(seed), *extra], cwd=tree, env=env, capture_output=True, text=True, check=True)
            peaks[f"stage.{stage}_peak_rss_mib"] = int(proc.stdout.split()[-1]) / 1024
    return peaks


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def round_metrics(workload: str, rounds: list[tuple[dict, dict]]) -> dict:
    """Each metric of the harness runs (record, result) as the median over the runs; every run must pass."""
    for record, result in rounds:
        if not result["correct"]:
            raise SystemExit(f"{workload}: a run failed: {record['problems'][:3]}")
    return {name: statistics.median(result["metrics"][name]["value"] for _, result in rounds)
            for name in rounds[0][1]["metrics"]}


def end_to_end_figures(workload: str, rounds: list[tuple[dict, dict]]) -> dict:
    """The untraced runs' metrics, plus wall_s and each stage's time as median and quartiles of the pooled passes."""
    figures = round_metrics(workload, rounds)
    passes = [p for record, _ in rounds for p in record["stage_s_per_pass"]]
    figures["wall_s"] = spread([sum(p.values()) for p in passes])
    figures.update({f"stage.{stage}_s": spread([p[stage] for p in passes]) for stage in passes[0]})
    return figures


def record_trees(trees: dict[str, Path], seed: int, seconds: float) -> dict[str, dict]:
    """label -> figures of every tree: ROUNDS untraced, then ROUNDS traced harness runs per workload.

    With two trees the runs alternate between them, and the tree that goes
    first flips at every step, so a host that speeds up or slows down
    during the recording weighs on both trees alike. Each tree's stage
    peaks are taken after its untraced rounds.
    """
    docs = {label: {"label": label, "seed": seed, "seconds": seconds, "rounds": ROUNDS, "workloads": {}}
            for label in trees}
    order = list(trees)
    kernel = kernel_fingerprint()
    for workload in WORKLOADS:
        for trace in (0, 1):
            rounds = {label: [] for label in trees}
            for _ in range(ROUNDS):
                for label in order:
                    rounds[label].append(run_harness(trees[label], workload, seed, seconds / ROUNDS, trace))
                order.reverse()
            for label in order:
                docs[label].setdefault("env", {**rounds[label][0][0]["env"], "kernel": kernel})
                figures = docs[label]["workloads"].setdefault(workload, {})
                passes = sum(record["passes"] for record, _ in rounds[label])
                if trace == 0:
                    figures.update(passes=passes, end_to_end=end_to_end_figures(workload, rounds[label]))
                    figures["rounds"] = {name: [result["metrics"][name]["value"] for _, result in rounds[label]]
                                         for name in rounds[label][0][1]["metrics"] if name.endswith(UNSPREAD)}
                    figures["end_to_end"].update(stage_peaks(trees[label], workload, seed))
                    figures["quality"] = {name: statistics.median(record["quality"][name] for record, _ in
                                                                  rounds[label])
                                          for name in rounds[label][0][0]["quality"]}
                else:
                    layers = round_metrics(workload, rounds[label])
                    figures.update(traced_passes=passes,
                                   per_layer={k: v for k, v in layers.items() if not k.startswith("quality.")})
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
        for group in ("end_to_end", "per_layer", "quality"):
            for name, value in figures.get(group, {}).items():
                if name not in before.get(group, {}):
                    continue
                was, where = before[group][name], f"{workload} {name}"
                if isinstance(was, dict):
                    if not was["q1"] <= value["median"] <= was["q3"]:
                        flags.append(f"{where}: median {value['median']:.4g} outside the previous "
                                     f"IQR {was['q1']:.4g}..{was['q3']:.4g} (median {was['median']:.4g})")
                elif name.endswith(UNSPREAD) or is_timing(name):
                    if was:
                        ratios[where] = value / was
                elif value != was:
                    flags.append(f"{where}: {was!r} -> {value!r}")
    return flags, ratios


def won_rounds(change: dict, parent: dict) -> dict[str, str]:
    """Per workload and per-round figure, the rounds in which change read lower than parent, as "<won>/<rounds>".

    Round i of both trees ran back to back, so each round is one pair.
    """
    won = {}
    for workload, figures in change["workloads"].items():
        for name, values in figures.get("rounds", {}).items():
            base = parent["workloads"][workload]["rounds"][name]
            won[f"{workload} {name}"] = f"{sum(new < old for new, old in zip(values, base))}/{len(values)}"
    return won


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
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="--seconds that the rounds of one tree, workload and trace mode split between them")
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
        docs[args.label]["won_rounds"] = won = won_rounds(docs[args.label], docs[args.parent_label])
        for where, count in won.items():
            print(f"{args.label} read lower than {args.parent_label} in {count} rounds: {where}")
        write(docs[args.parent_label], outs[args.parent_label], previous)
        previous = outs[args.parent_label]
    write(docs[args.label], outs[args.label], previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
