"""Verification scoring: cosine trial scores, EER, minDCF, run reports.

EER is located by linear interpolation between the two adjacent ROC
operating points where the miss and false-acceptance curves cross; minDCF
sweeps every distinct score plus the two trivial endpoints and normalizes
by the cost of the better blind decision, min(p_target, 1 - p_target).
Both are invariant under strictly increasing score transforms.

Trials come as corpus.split_trials draws them, an (n, 3) int64 array of
(enroll_id, test_id, is_target) rows; scores leave as an (n,) float64
array, row for row. compute_eer and compute_mindcf take the scores with
the bool array trials[:, 2] == 1.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .embedder import Checkpoint, forward_pooled
from .errors import CorruptArtifact, MissingArtifacts, SingleClass
from .fileio import atomic_write


def score_trials(checkpoint: Checkpoint, corpus: Corpus, trials: np.ndarray) -> np.ndarray:
    """Cosine between the embeddings of each trial's two segments, as an (n,) float64 array.

    Each segment the (n, 3) trial array names is embedded once; each score
    is one 1-D dot product of its two unit embeddings.
    """
    needed, index = np.unique(trials[:, :2], return_inverse=True)
    emb, _ = forward_pooled(corpus.mean_frames()[needed], checkpoint.params)
    return np.array([emb[a] @ emb[b] for a, b in index.reshape(-1, 2).tolist()], dtype=np.float64)


def _rates(scores: np.ndarray, is_target: np.ndarray):
    """Operating points over thresholds at -inf and every distinct score.

    Decision rule: accept when score >= threshold. Returns parallel
    arrays of P_miss (targets below threshold) and P_fa (non-targets at
    or above), ending at threshold +inf.
    """
    tar = np.sort(scores[is_target])
    non = np.sort(scores[~is_target])
    if tar.size == 0 or non.size == 0:
        raise SingleClass("need at least one target and one non-target trial")
    thresholds = np.unique(scores)
    miss = np.searchsorted(tar, thresholds, side="left") / tar.size
    fa = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    miss = np.concatenate([[0.0], miss, [1.0]])
    fa = np.concatenate([[1.0], fa, [0.0]])
    return miss, fa


def compute_eer(scores: np.ndarray, is_target: np.ndarray) -> float:
    """Equal error rate in [0, 1] of scores, where the bool array is_target marks the target trials."""
    miss, fa = _rates(scores, is_target)
    diff = miss - fa
    idx = int(np.argmax(diff >= 0.0))  # first crossing; diff starts at -1
    if diff[idx] == 0.0:
        return float(miss[idx])
    m1, f1 = miss[idx - 1], fa[idx - 1]
    m2, f2 = miss[idx], fa[idx]
    # intersection of the ROC segment with the miss == fa diagonal
    t = (f1 - m1) / ((m2 - m1) - (f2 - f1))
    return float(m1 + t * (m2 - m1))


def compute_mindcf(scores: np.ndarray, is_target: np.ndarray, p_target: float, c_miss: float,
                   c_fa: float) -> float:
    """Minimum normalized detection cost over all thresholds; is_target as for compute_eer."""
    miss, fa = _rates(scores, is_target)
    costs = c_miss * p_target * miss + c_fa * (1.0 - p_target) * fa
    best = float(np.min(costs))
    return best / min(c_miss * p_target, c_fa * (1.0 - p_target))


def save_scores(scores: np.ndarray, trials: np.ndarray, path: str | Path) -> None:
    """Write scores_*.tsv: per trial row, `enroll_id <tab> test_id <tab> score <tab> 0|1`, the score as repr."""
    lines = [f"{enroll}\t{test}\t{score!r}\t{label}"
             for (enroll, test, label), score in zip(trials.tolist(), scores.tolist())]
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


def _schedule_trace(metrics_csv: Path) -> dict:
    """Schedule and loss summary of a metrics CSV; CorruptArtifact unless it ends in a
    newline and every row after the header is six numbers."""
    text = metrics_csv.read_text("utf-8", errors="replace")
    try:
        rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    except ValueError:
        rows = None
    if rows is None or not text.endswith("\n") or any(len(row) != 6 for row in rows):
        raise CorruptArtifact(f"{metrics_csv}: not newline-terminated rows of six numbers after the header")
    if not rows:
        return {}
    first, last = rows[0], rows[-1]
    losses = [row[5] for row in rows]
    return {
        "steps": len(rows),
        "lr_first": first[2], "lr_last": last[2],
        "margin_first": first[3], "margin_last": last[3],
        "tau_first": first[4], "tau_last": last[4],
        "loss_first": losses[0], "loss_last": losses[-1],
        "loss_mean_first10": sum(losses[:10]) / min(10, len(losses)),
        "loss_mean_last10": sum(losses[-10:]) / min(10, len(losses)),
    }


def _read_json(path: Path):
    try:
        return json.loads(path.read_text("utf-8"))
    except ValueError:  # a decoding error too
        raise CorruptArtifact(f"{path} is not valid JSON") from None


def check_report_inputs(run_dir: str | Path, skip=frozenset()) -> None:
    """Read and check every file make_report(run_dir) reads, but those in skip or in a directory in skip.

    A command that rewrites some of the report's inputs calls this before
    its first write, so a damaged other input fails it with the run
    directory untouched; CorruptArtifact for a damaged file.
    """
    run_dir = Path(run_dir)
    ablation_dir = run_dir / "ablation"
    subs = sorted(sub for sub in ablation_dir.iterdir() if sub.is_dir()) if ablation_dir.is_dir() else []
    for directory in (run_dir, *subs):
        if directory in skip:
            continue
        for pattern in ("eval_*.json", "selection_stats.json", "metrics_*.csv"):
            for path in sorted(directory.glob(pattern)):
                if path not in skip:
                    _schedule_trace(path) if path.suffix == ".csv" else _read_json(path)


def collect_run(run_dir: str | Path) -> dict:
    """Everything reportable inside one run directory; CorruptArtifact for a damaged file."""
    run_dir = Path(run_dir)
    out: dict = {}
    evals = {}
    for path in sorted(run_dir.glob("eval_*.json")):
        evals[path.stem.removeprefix("eval_")] = _read_json(path)
    if evals:
        out["evals"] = evals
    stats = run_dir / "selection_stats.json"
    if stats.exists():
        out["selection"] = _read_json(stats)
    schedules = {}
    for path in sorted(run_dir.glob("metrics_*.csv")):
        schedules[path.stem.removeprefix("metrics_")] = _schedule_trace(path)
    if schedules:
        out["schedules"] = schedules
    return out


def make_report(run_dir: str | Path) -> dict:
    """Consolidated report.json for a run directory.

    Includes per-checkpoint EER/minDCF, selection stats, schedule traces,
    and, when ablation subruns are present, the six-row stage-1 grid plus
    the stage-2 comparison rows.
    """
    run_dir = Path(run_dir)
    report = collect_run(run_dir)
    ablation_dir = run_dir / "ablation"
    if ablation_dir.is_dir():
        grid = {}
        for sub in sorted(ablation_dir.iterdir()):
            if sub.is_dir():
                grid[sub.name] = collect_run(sub)
        if grid:
            report["ablation"] = grid
    if not report:
        raise MissingArtifacts(f"nothing to report in {run_dir}")
    atomic_write(run_dir / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
