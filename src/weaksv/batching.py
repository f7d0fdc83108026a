"""Bag construction and mini-batch planning for both stages.

Stage 1 builds one bag per recording, containing exactly one uniformly
sampled segment from each of its clusters, and packs shuffled bags
greedily into mini-batches whose total segment count stays within 10% of
the target size (the final remainder batch may be smaller). Stage 2 is
plain uniform segment batching at fixed size, optionally mixing rows
drawn from the unknown pool into each batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Corpus, Recording, UNKNOWN
from .errors import BagTooLarge, EmptyCluster
from .rng import Rng


@dataclass(frozen=True)
class Bag:
    recording_id: int
    target: int
    segment_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.segment_ids)


@dataclass
class BagBatch:
    bags: list[Bag] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(b.size for b in self.bags)


@dataclass(frozen=True)
class SegmentRow:
    segment_id: int
    label: int  # UNKNOWN for rows from the unknown pool
    known: bool


@dataclass
class SegmentBatch:
    rows: list[SegmentRow]

    @property
    def size(self) -> int:
        return len(self.rows)


def build_bag(recording: Recording, rng: Rng) -> Bag:
    """Minimal covering bag: one uniform segment per cluster."""
    if not recording.clusters:
        raise EmptyCluster(f"recording {recording.recording_id} has no clusters")
    picks = []
    for cid, cluster in enumerate(recording.clusters):
        if not cluster:
            raise EmptyCluster(f"recording {recording.recording_id} cluster {cid} is empty")
        picks.append(rng.choice(cluster))
    return Bag(recording.recording_id, recording.target, tuple(picks))


def plan_epoch_stage1(corpus: Corpus, target_batch_size: int, seed: int) -> list[BagBatch]:
    """One epoch of recording bags packed into dynamically sized batches.

    Recordings are shuffled, then bags are appended greedily: a batch
    closes once the next bag would push it past the target and it has
    already reached 0.9x the target, which keeps every non-final batch
    within 10% of the target whenever bags are small relative to it.
    Every training recording appears exactly once per epoch.
    """
    rng = Rng.from_seed(seed, "plan1")
    recordings = sorted(corpus.train_recordings(), key=lambda r: r.recording_id)
    order = list(range(len(recordings)))
    rng.shuffle(order)

    lo = 0.9 * target_batch_size
    batches: list[BagBatch] = []
    current = BagBatch()
    open_size = 0  # current.size, kept as a running count
    for idx in order:
        rec = recordings[idx]
        bag = build_bag(rec, rng.spawn("bag", rec.recording_id))
        if bag.size > 1.1 * target_batch_size:
            raise BagTooLarge(
                f"recording {rec.recording_id} needs {bag.size} segments, over 1.1x target {target_batch_size}")
        if current.bags and open_size + bag.size > target_batch_size and open_size >= lo:
            batches.append(current)
            current = BagBatch()
            open_size = 0
        current.bags.append(bag)
        open_size += bag.size
    if current.bags:
        batches.append(current)
    return batches


def plan_epoch_stage2(
    selected: list[tuple[int, int]],
    target_batch_size: int,
    seed: int,
    unknown_pool: list[int] | None = None,
    mix_fraction: float = 0.0,
) -> list[SegmentBatch]:
    """Fixed-size segment batches over (segment_id, label) pairs.

    With an active unknown pool, each batch holds round(mix_fraction *
    batch size) rows sampled from the pool (with replacement); that count
    must stay below the batch size, as the run configuration's rules
    require, so every batch keeps a known row.
    """
    n_unknown = round(mix_fraction * target_batch_size) if unknown_pool else 0
    known_per_batch = target_batch_size - n_unknown

    rng = Rng.from_seed(seed, "plan2")
    order = list(range(len(selected)))
    rng.shuffle(order)

    batches: list[SegmentBatch] = []
    for start in range(0, len(order), known_per_batch):
        chunk = order[start:start + known_per_batch]
        rows = [SegmentRow(selected[i][0], selected[i][1], True) for i in chunk]
        for _ in range(n_unknown):
            rows.append(SegmentRow(rng.choice(unknown_pool), UNKNOWN, False))
        batches.append(SegmentBatch(rows))
    return batches
