"""Stage-1 to stage-2 bridge: self-labeling and the unknown-speaker pool.

A diarized segment is kept for stage 2 if and only if the stage-1 model
classifies it as its recording's target; kept segments carry the target
label. Quality is reported as precision/recall against the oracle, where
the oracle-positive set holds the segments whose oracle label equals
their recording's target.

The unknown pool collects not-selected segments whose recording target is
absent from the model's top-k predictions (it might otherwise still be
the target speaking), ranked by the unnormalized log-sum-exp of their
scaled logits as a confidence score, truncated to the top fraction.

Both read one scoring of the training segments (score_train_segments),
which takes every segment's target from the corpus's cluster table, next
to its row: no per-segment recording lookup. The scoring embeds the rows
ROW_BLOCK at a time and reduces each block's cosines to the per-row
values the two read (predicted class, target cosine, target rank, logit
log-sum-exp), so its scratch memory is O(ROW_BLOCK x speakers + rows),
never rows x speakers. Per row the
arithmetic (rank tie rule, max-shifted exp sum, math.log) is that of a
row-by-row loop over the whole cosine matrix, so its results equal that
loop's bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .embedder import Checkpoint, forward_pooled
from .errors import ConfigError, CorruptArtifact
from .fileio import atomic_write

# Training rows embedded and scored per block in score_train_segments:
# bounds the scratch memory for their cosines and logits.
ROW_BLOCK = 1024


@dataclass
class SelectionStats:
    precision: float
    recall: float
    selected_count: int
    oracle_target_count: int
    selected_frames: int
    oracle_target_frames: int
    per_speaker_coverage: dict[int, int]
    empty_selection: bool = False


@dataclass
class SelectionResult:
    # (segment_id, label); the label is always the recording's target
    selected: list[tuple[int, int]]
    scores: dict[int, float] = field(default_factory=dict)  # winning cosine
    stats: SelectionStats | None = None


@dataclass
class UnknownPool:
    # ordered by descending confidence
    segment_ids: list[int]
    lse_scores: dict[int, float] = field(default_factory=dict)
    target_ranks: dict[int, int] = field(default_factory=dict)


@dataclass
class ScoredSegments:
    """Every diarized training segment scored against all prototypes.

    Rows follow ascending segment id. Each row keeps only what self_label
    and select_unknown_pool read, not its cosines.
    """

    segment_ids: np.ndarray  # int64
    n_speakers: int
    targets: np.ndarray  # recording target per row, int64
    predicted: np.ndarray  # argmax class of the cosines, int64
    target_cosines: np.ndarray  # cosine with the target's prototype
    target_ranks: np.ndarray  # classes above the target by scaled logit; a tie ranks the lower class first
    lse: np.ndarray  # ln sum_j exp(L_j) over the scaled logits L


def score_train_segments(corpus: Corpus, checkpoint: Checkpoint, scale: float = 30.0) -> ScoredSegments:
    """Embed every diarized training segment once and reduce its prototype cosines.

    Rows are scored ROW_BLOCK at a time; scale turns cosines into logits.
    A one-row tail joins the block before it, since numpy hands a one-row
    product to BLAS gemv, whose last bit can differ from gemm's.
    """
    pooled = corpus.mean_frames()
    members, member_targets = _train_members(corpus)
    owner_target = np.full(len(corpus.segments), -1, dtype=np.int64)
    owner_target[members] = member_targets
    sids = np.flatnonzero(owner_target >= 0)
    targets = owner_target[sids]
    n, cols = len(sids), np.arange(checkpoint.n_speakers)
    predicted, ranks = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    target_cosines, lse = np.empty(n), np.empty(n)
    stops = [*range(ROW_BLOCK, n - 1, ROW_BLOCK), n]  # a one-row tail joins the last block
    for start, stop in zip([0] + stops, stops):
        emb, _ = forward_pooled(pooled[sids[start:stop]], checkpoint.params)
        cos = emb @ checkpoint.params["P"].T
        tgt, at = targets[start:stop], np.arange(stop - start)
        predicted[start:stop] = np.argmax(cos, axis=1)
        target_cosines[start:stop] = cos[at, tgt]
        logits = np.multiply(scale, cos, out=cos)
        t_logit = logits[at, tgt][:, None]
        ranks[start:stop] = (np.count_nonzero(logits > t_logit, axis=1)
                             + np.count_nonzero((logits == t_logit) & (cols < tgt[:, None]), axis=1))
        m = logits.max(axis=1)
        logits -= m[:, None]
        np.exp(logits, out=logits)
        lse[start:stop] = [mi + math.log(total) for mi, total in zip(m.tolist(), logits.sum(axis=1).tolist())]
    return ScoredSegments(sids, len(cols), targets, predicted, target_cosines, ranks, lse)


def _train_members(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Every cluster member of a training recording and that recording's target, in cluster-table order."""
    table = corpus.cluster_table()
    owner = table.owners()
    train = ~table.heldout[owner]
    return table.members[train], table.targets[owner[train]]


def self_label(corpus: Corpus, scored: ScoredSegments) -> SelectionResult:
    """Keep each diarized segment iff its argmax class equals the target."""
    rows = np.flatnonzero(scored.predicted == scored.targets)
    kept = scored.segment_ids[rows].tolist()
    selected = list(zip(kept, scored.targets[rows].tolist()))
    scores = dict(zip(kept, scored.target_cosines[rows].tolist()))
    result = SelectionResult(selected, scores)
    result.stats = selection_stats(result, corpus)
    return result


def selection_stats(result: SelectionResult, corpus: Corpus) -> SelectionStats:
    """Precision/recall of the selection against the oracle labels."""
    n_frames = np.diff(corpus.segments.bounds)
    members, targets = _train_members(corpus)
    hits = members[corpus.segments.oracle[members] == targets]  # oracle-positive: voices its recording's target
    oracle_target = np.zeros(len(corpus.segments), dtype=bool)
    oracle_target[hits] = True
    n_oracle = int(np.count_nonzero(oracle_target))
    selected = np.array([sid for sid, _ in result.selected], dtype=np.int64)
    correct = int(np.count_nonzero(oracle_target[selected]))
    coverage: dict[int, int] = {}
    for _, label in result.selected:
        coverage[label] = coverage.get(label, 0) + 1
    empty = not result.selected
    precision = 0.0 if empty else correct / len(result.selected)
    recall = 0.0 if not n_oracle else correct / n_oracle
    return SelectionStats(precision, recall, len(result.selected), n_oracle,
                          int(n_frames[selected].sum()), int(n_frames[hits].sum()), coverage, empty)


def select_unknown_pool(scored: ScoredSegments, top_k: int = 10, fraction: float = 0.05) -> UnknownPool:
    """Confident non-target segments for the extra-class training data.

    Candidates are the diarized segments self-labeling rejected; any whose
    recording target ranks inside the model's top_k classes is discarded,
    the rest are ranked by ln sum_j exp(L_j) over the scaled logits and
    the top ceil(fraction * survivors) kept. Rank ties break toward the
    lower class index.
    """
    if scored.n_speakers <= top_k:
        raise ConfigError(f"top_k={top_k} needs more than {top_k} known speakers")
    rows = np.flatnonzero((scored.predicted != scored.targets) & (scored.target_ranks >= top_k))
    # descending LSE, ties by ascending segment id
    rows = rows[np.lexsort((scored.segment_ids[rows], -scored.lse[rows]))]
    kept = rows[:math.ceil(fraction * rows.size)]
    sids = scored.segment_ids[kept].tolist()
    return UnknownPool(sids, dict(zip(sids, scored.lse[kept].tolist())),
                       dict(zip(sids, scored.target_ranks[kept].tolist())))


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------


def save_selection(result: SelectionResult, directory: str | Path) -> None:
    directory = Path(directory)
    lines = [json.dumps({"segment_id": sid, "label": lab, "score": result.scores.get(sid)})
             for sid, lab in sorted(result.selected)]
    atomic_write(directory / "selection.jsonl", "\n".join(lines) + ("\n" if lines else ""))
    st = result.stats
    payload = {
        "precision": st.precision,
        "recall": st.recall,
        "selected_count": st.selected_count,
        "oracle_target_count": st.oracle_target_count,
        "selected_frames": st.selected_frames,
        "oracle_target_frames": st.oracle_target_frames,
        "per_speaker_coverage": {str(k): v for k, v in sorted(st.per_speaker_coverage.items())},
        "empty_selection": st.empty_selection,
    }
    atomic_write(directory / "selection_stats.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_int_records(path: Path, limits: dict[str, int]) -> list[tuple[int, ...]]:
    """The fields named in limits of every record of a JSON-lines file, in file order.

    Raises CorruptArtifact for a line that is not a JSON object holding
    each field as an integer in 0..limit-1: ids and labels index rows, so
    a negative one would silently select another row.
    """
    out = []
    for lineno, line in enumerate(path.read_text("utf-8", errors="replace").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            values = tuple(rec[key] for key in limits)
        except (ValueError, KeyError, TypeError):
            values = None
        if values is None or any(type(v) is not int or not 0 <= v < n for v, n in zip(values, limits.values())):
            fields = ", ".join(f"{key} in 0..{n - 1}" for key, n in limits.items())
            raise CorruptArtifact(f"{path} line {lineno} is not a record with integer {fields}")
        out.append(values)
    return out


def load_selection(directory: str | Path, n_segments: int, n_speakers: int) -> list[tuple[int, int]]:
    return _read_int_records(Path(directory) / "selection.jsonl", {"segment_id": n_segments, "label": n_speakers})


def save_unknown_pool(pool: UnknownPool, directory: str | Path) -> None:
    lines = [json.dumps({"segment_id": sid, "lse_score": pool.lse_scores[sid],
                         "target_rank": pool.target_ranks[sid]})
             for sid in pool.segment_ids]
    atomic_write(Path(directory) / "unknown_pool.jsonl", "\n".join(lines) + ("\n" if lines else ""))


def load_unknown_pool(directory: str | Path, n_segments: int) -> list[int]:
    return [sid for sid, in _read_int_records(Path(directory) / "unknown_pool.jsonl", {"segment_id": n_segments})]
