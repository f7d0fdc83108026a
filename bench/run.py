"""Benchmark harness for weaksv.

Usage (from the repository root):

    python3 bench/run.py --workload pipeline --seed 101 --seconds 35 --trace 0
    python3 -m pytest -q bench/tests        # smoke test at the tiny size

One process, one closed-loop client: each pass runs the workload's CLI
stages back to back through `weaksv.cli.main`, in a fresh run directory
under `.bench_work/runs/`, with the same seed, so every pass does
identical work. Passes repeat until the next one would end after
`--seconds` (at least three; with tracing, at least two traced/untraced
pairs). A time is the median over the passes.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters importing weaksv and loading the config), wall_s, 1 - EER
of both stages, peak RSS and the share of passes that passed every
check. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics: stage times from the untraced passes (cli.gen_s,
cli.diar_s, cli.train_eval_s for every stage after diar), spans and
counts from the traced ones, which wrap the layers' functions from
outside (see tracing.py) and restore them afterwards.

Every pass is checked: each stage exits 0, the quality figures are rates,
the acceptance bounds hold on pipeline, and the run directory's files,
and on traced passes the deterministic counts, are identical to the first
pass and to any earlier run of the same code and seed (kept in
`.bench_work/expected/`). A pass that fails a check counts in `failed`.

Wall-clock never enters the weaksv run directory, so its files stay
comparable byte for byte. The last stdout line is the result JSON; the
line before it holds the full record (environment, per-stage times, raw
quality, problems), also written to `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, check_quality, quality

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
MIN_PAIRS = 2
SETUP_REPEATS = 7
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import weaksv.cli, weaksv.config; weaksv.config.load_run_config(sys.argv[2])")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "one_minus_eer_stage1": "fraction",
    "one_minus_eer_stage2": "fraction", "peak_rss_mib": "MiB", "success_rate": "fraction",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_last10"):
        return "nat"
    if name.startswith("quality."):
        return "fraction"
    if name == "losses.calls_per_step":
        return "calls/step"
    if name == "corpus.feat_bytes":
        return "bytes"
    return "count"


def is_timing(name: str) -> bool:
    return layer_unit(name) in ("s", "1/s")


@dataclass
class Pass:
    traced: bool
    stage_s: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def artifact_digest(run_dir: Path) -> str:
    """sha256 over every file of a run directory, by relative path.

    Files are read in chunks so that hashing does not raise peak_rss_mib.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        file_hash = hashlib.sha256()
        with path.open("rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                file_hash.update(chunk)
        h.update(str(path.relative_to(run_dir)).encode() + b"\0" + file_hash.digest())
    return h.hexdigest()


def code_digest() -> str:
    """Identifies the program and harness code a stored expectation belongs to."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_pass(cli, workload, size: str, cfg_path: Path, seed: int, runs: Path, traced: bool) -> Pass:
    result = Pass(traced)
    run_dir = Path(tempfile.mkdtemp(dir=runs))
    tracer = Tracer().install() if traced else None
    try:
        t_start = time.perf_counter()
        for stage, *extra in workload.stages:
            argv = [stage, "--config", str(cfg_path), "--out", str(run_dir), "--seed", str(seed), *extra]
            entry = tracer.timed(f"cli.{stage}", cli.main) if traced else cli.main
            err = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = entry(argv)
            except Exception as exc:  # an uncaught error in the program fails the pass
                rc = f"{type(exc).__name__}: {exc}"
            result.stage_s[stage] = time.perf_counter() - t0
            if rc != 0:
                result.problems.append(f"{stage} exited with {rc}: {err.getvalue().strip()[-300:]}")
                break
        result.wall_s = time.perf_counter() - t_start
    finally:
        if tracer is not None:
            tracer.close()
    try:
        if not result.problems:
            result.quality = quality(workload, run_dir)
            result.problems += check_quality(workload, size, result.quality)
            result.digest = artifact_digest(run_dir)
            if traced:
                result.layers = layer_metrics(tracer, [f"cli.{s[0]}" for s in workload.stages])
                result.layers["corpus.feat_bytes"] = (run_dir / "corpus.feat").stat().st_size
    except (OSError, KeyError, ValueError) as exc:
        result.problems.append(f"reading the run's artifacts failed: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def deterministic(layers: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in layers.items() if not is_timing(k)}


class Expectations:
    """Digests and counts of the first pass, checked on every later pass and run."""

    def __init__(self, path: Path):
        self.path = path
        self.stored = json.loads(path.read_text("utf-8")) if path.exists() else {}
        self.dirty = False

    def check(self, p: Pass) -> None:
        facts = {"digest": p.digest, "quality": p.quality}
        if p.traced:
            facts["counts"] = deterministic(p.layers)
        for key, value in facts.items():
            if key not in self.stored:
                self.stored[key] = value
                self.dirty = True
            elif self.stored[key] != value:
                p.problems.append(f"{key} differs from the first pass of this code and seed: "
                                  f"{_diff(self.stored[key], value)}")

    def save(self) -> None:
        if self.dirty:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text(json.dumps(self.stored, indent=1, sort_keys=True), encoding="utf-8")
            tmp.replace(self.path)


def _diff(expected, got) -> str:
    if isinstance(expected, dict) and isinstance(got, dict):
        keys = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
        return ", ".join(f"{k}: {expected.get(k)!r} -> {got.get(k)!r}" for k in keys[:5])
    return f"{expected!r} -> {got!r}"


def measure_setup(cfg_path: Path) -> float:
    """Median time from a fresh interpreter to weaksv imported and config loaded."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(cfg_path)],
                       check=True, capture_output=True, timeout=60, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(np) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text("utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text("utf-8").strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "code_digest": code_digest(),
    }


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    good = [p for p in passes if not p.problems]
    q = good[0].quality if good else {}
    return {
        "setup_s": setup_s,
        "wall_s": median_of([p.wall_s for p in good]),
        "one_minus_eer_stage1": 1.0 - q.get("eer_stage1", 1.0),
        "one_minus_eer_stage2": 1.0 - q.get("eer_stage2", 1.0),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": len(good) / len(passes),
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    good = [p for p in passes if not p.problems]
    traced = [p for p in good if p.traced]
    if not traced:
        return {}
    out = {}
    for name in traced[0].layers:
        values = [p.layers[name] for p in traced]
        out[name] = median_of(values) if is_timing(name) else values[0]
    untraced = [p for p in good if not p.traced]
    out["cli.gen_s"] = median_of([p.stage_s["gen"] for p in untraced])
    out["cli.diar_s"] = median_of([p.stage_s["diar"] for p in untraced])
    out["cli.train_eval_s"] = median_of([p.wall_s - p.stage_s["gen"] - p.stage_s["diar"]
                                         for p in untraced])
    out.update({f"quality.{k}": v for k, v in traced[0].quality.items()})
    out["trace.overhead_s"] = (median_of([p.wall_s for p in traced])
                               - median_of([p.wall_s for p in untraced]))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same stages on a small corpus (harness smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "weaksv" / "__init__.py").is_file():
        print(f"error: weaksv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import weaksv.cli as cli
    from weaksv.config import load_run_config

    if Path(cli.__file__).resolve().parent != SRC / "weaksv":
        print(f"error: imported weaksv from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=runs, prefix="cfg-"))
    try:
        cfg_path = scratch / f"{workload.name}.cfg"
        cfg_path.write_text(workload.configs[args.size], encoding="utf-8")
        load_run_config(cfg_path)  # a bad workload config fails here, before any timing
        setup_s = measure_setup(cfg_path) if args.trace == 0 else 0.0
        expect = Expectations(WORK / "expected" /
                              f"{workload.name}-{args.size}-seed{args.seed}-{code_digest()[:16]}.json")

        passes: list[Pass] = []
        deadline = time.perf_counter() + args.seconds
        min_passes = MIN_PASSES if args.trace == 0 else 2 * MIN_PAIRS
        while True:
            if args.trace == 0:
                order = [False]
            else:  # traced and untraced passes take turns at going first
                order = [False, True] if len(passes) % 4 == 0 else [True, False]
            t0 = time.perf_counter()
            for traced in order:
                gc.collect()
                p = run_pass(cli, workload, args.size, cfg_path, args.seed, runs, traced)
                if not p.problems:
                    expect.check(p)
                passes.append(p)
            cost = time.perf_counter() - t0
            if len(passes) >= min_passes and time.perf_counter() + cost > deadline:
                break
        expect.save()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(1 for p in passes if p.problems)
    if args.trace == 0:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(passes, setup_s).items()}
    else:
        metrics = {k: (v, layer_unit(k)) for k, v in per_layer(passes).items()}
    good = [p for p in passes if not p.problems]
    record = {
        "workload": workload.name, "size": args.size, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "failed": failed,
        "env": environment(np),
        "stage_s_median": {s[0]: median_of([p.stage_s[s[0]] for p in good]) for s in workload.stages},
        "stage_s_per_pass": [{k: round(v, 6) for k, v in p.stage_s.items()} for p in passes],
        "quality": good[0].quality if good else {},
        "problems": [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({**record, "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1),
        encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6f} {unit}")
    for msg in record["problems"]:
        print(f"FAILED {msg}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
