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

collect_report is the one reader of a run report's inputs, and rejects a
damaged file or a non-finite number; make_report writes what it returns.
"""

from __future__ import annotations

import json
import math
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
    newline and every row after the header is six finite numbers."""
    text = metrics_csv.read_text("utf-8", errors="replace")
    try:
        rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
    except ValueError:
        rows = None
    if (rows is None or not text.endswith("\n")
            or any(len(row) != 6 or not all(map(math.isfinite, row)) for row in rows)):
        raise CorruptArtifact(f"{metrics_csv}: not newline-terminated rows of six finite numbers after the header")
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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _read_json(path: Path):
    """The JSON in path; CorruptArtifact for a decoding error or a non-finite number (NaN, Infinity, 1e999)."""
    try:
        return json.loads(path.read_text("utf-8"), parse_float=_finite, parse_constant=_finite)
    except ValueError:  # a decoding error too
        raise CorruptArtifact(f"{path} is not valid JSON of finite numbers") from None


def _collect_run(run_dir: Path, skip) -> dict:
    """Everything reportable inside one run directory but the files in skip."""
    out: dict = {}
    evals = {path.stem.removeprefix("eval_"): _read_json(path)
             for path in sorted(run_dir.glob("eval_*.json")) if path not in skip}
    if evals:
        out["evals"] = evals
    stats = run_dir / "selection_stats.json"
    if stats.exists() and stats not in skip:
        out["selection"] = _read_json(stats)
    schedules = {path.stem.removeprefix("metrics_"): _schedule_trace(path)
                 for path in sorted(run_dir.glob("metrics_*.csv")) if path not in skip}
    if schedules:
        out["schedules"] = schedules
    return out


def collect_report(run_dir: str | Path, skip=frozenset()) -> dict:
    """What report.json holds for run_dir: per-checkpoint EER/minDCF, selection stats, schedule traces
    and the ablation/<run> grid rows, read from every input but the files and runs in skip (those a
    command rewrites, as it calls this before its first write); CorruptArtifact for a damaged file."""
    run_dir = Path(run_dir)
    report = _collect_run(run_dir, skip)
    ablation_dir = run_dir / "ablation"
    if ablation_dir.is_dir():
        grid = {sub.name: _collect_run(sub, skip) for sub in sorted(ablation_dir.iterdir())
                if sub.is_dir() and sub not in skip}
        if grid:
            report["ablation"] = grid
    return report


def make_report(run_dir: str | Path) -> dict:
    """Write collect_report(run_dir) to run_dir/report.json and return it; MissingArtifacts if it is empty."""
    report = collect_report(run_dir)
    if not report:
        raise MissingArtifacts(f"nothing to report in {run_dir}")
    atomic_write(Path(run_dir) / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
