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
loop's bit for bit, whatever the block size. ROW_BLOCK is 256 rows, so a
block's cosines at 320 speakers (256 x 320 x 8 B = 640 KiB) fit in L2. A
larger block scored no faster and only grew the heap the process keeps
after select; a smaller one lowered no peak further.

The selection is an (n, 2) int64 array of (segment_id, label) rows in
ascending segment id, with a parallel array of scores; the pool is
three parallel arrays. Their JSON-lines files load back as the same
id arrays, which the stage-2 planner reads as they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .embedder import Checkpoint, forward_pooled
from .errors import ConfigError, CorruptArtifact
from .fileio import atomic_write

# Training rows embedded and scored per block in score_train_segments:
# bounds the scratch memory for their cosines and logits, sized so that
# one block's cosines fit in L2 (see the module docstring).
ROW_BLOCK = 256


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
    selected: np.ndarray  # (n, 2) int64 rows (segment_id, label) in ascending segment id; the label is the target
    scores: np.ndarray  # each row's winning cosine
    stats: SelectionStats


@dataclass
class UnknownPool:
    """Parallel arrays, ordered by descending confidence."""

    segment_ids: np.ndarray  # int64
    lse_scores: np.ndarray
    target_ranks: np.ndarray  # int64


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
    table = corpus.table
    owner = table.owners()
    train = ~table.heldout[owner]
    return table.members[train], table.targets[owner[train]]


def self_label(corpus: Corpus, scored: ScoredSegments) -> SelectionResult:
    """Keep each diarized segment iff its argmax class equals the target."""
    rows = np.flatnonzero(scored.predicted == scored.targets)
    selected = np.column_stack([scored.segment_ids[rows], scored.targets[rows]])
    return SelectionResult(selected, scored.target_cosines[rows], selection_stats(selected, corpus))


def selection_stats(selected: np.ndarray, corpus: Corpus) -> SelectionStats:
    """Precision/recall of the (segment_id, label) rows selected against the oracle labels."""
    n_frames = corpus.segments.n_frames
    members, targets = _train_members(corpus)
    hits = members[corpus.segments.oracle[members] == targets]  # oracle-positive: voices its recording's target
    oracle_target = np.zeros(len(corpus.segments), dtype=bool)
    oracle_target[hits] = True
    n_oracle = int(np.count_nonzero(oracle_target))
    sids, n_selected = selected[:, 0], len(selected)
    correct = int(np.count_nonzero(oracle_target[sids]))
    labels, counts = np.unique(selected[:, 1], return_counts=True)
    precision = correct / n_selected if n_selected else 0.0
    recall = correct / n_oracle if n_oracle else 0.0
    return SelectionStats(precision, recall, n_selected, n_oracle, int(n_frames[sids].sum()),
                          int(n_frames[hits].sum()), dict(zip(labels.tolist(), counts.tolist())), not n_selected)


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
    return UnknownPool(scored.segment_ids[kept], scored.lse[kept], scored.target_ranks[kept])


# ---------------------------------------------------------------------------
# Artifact I/O
# ---------------------------------------------------------------------------


def save_selection(result: SelectionResult, directory: str | Path) -> None:
    directory = Path(directory)
    lines = [json.dumps({"segment_id": sid, "label": label, "score": score})
             for (sid, label), score in zip(result.selected.tolist(), result.scores.tolist())]
    atomic_write(directory / "selection.jsonl", "\n".join(lines) + ("\n" if lines else ""))
    payload = asdict(result.stats)
    payload["per_speaker_coverage"] = {str(k): v for k, v in payload["per_speaker_coverage"].items()}
    atomic_write(directory / "selection_stats.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_int_records(path: Path, limits: dict[str, int]) -> np.ndarray:
    """The fields named in limits of every record of a JSON-lines file: an int64 row per record, in file order.

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
    return np.array(out, dtype=np.int64).reshape(-1, len(limits))


def load_selection(directory: str | Path, n_segments: int, n_speakers: int) -> np.ndarray:
    """selection.jsonl's (segment_id, label) rows, as the (n, 2) int64 array save_selection wrote."""
    return _read_int_records(Path(directory) / "selection.jsonl", {"segment_id": n_segments, "label": n_speakers})


def save_unknown_pool(pool: UnknownPool, directory: str | Path) -> None:
    lines = [json.dumps({"segment_id": sid, "lse_score": lse, "target_rank": rank})
             for sid, lse, rank in zip(pool.segment_ids.tolist(), pool.lse_scores.tolist(),
                                       pool.target_ranks.tolist())]
    atomic_write(Path(directory) / "unknown_pool.jsonl", "\n".join(lines) + ("\n" if lines else ""))


def load_unknown_pool(directory: str | Path, n_segments: int) -> np.ndarray:
    """unknown_pool.jsonl's segment ids, in file order, as an int64 array."""
    return _read_int_records(Path(directory) / "unknown_pool.jsonl", {"segment_id": n_segments})[:, 0]
