"""Bag construction and mini-batch planning for both stages.

Stage 1 builds one bag per recording, containing exactly one uniformly
sampled segment from each of its clusters, and packs shuffled bags
greedily into mini-batches whose total segment count stays within 10% of
the target size (the final remainder batch may be smaller). Stage 2 is
plain uniform segment batching at fixed size, optionally mixing rows
drawn from the unknown pool into each batch.

Each planner makes an epoch's draws in a few array passes over the
corpus's cluster table, each at the (stream key, counter) a one-by-one
loop uses, so the plans are bitwise those of Rng.shuffle and of a
spawn("bag", recording_id) stream choosing per cluster. Batches hold the
arrays training reads, a stage-1 batch its bag map too; BagBatch.bags
builds Bag records on demand for the benchmark tracer's bag counts
(bench/tracing.py) and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, UNKNOWN
from .errors import BagTooLarge, EmptyCluster
from .rng import Rng, derive_key, derive_keys, u64_at


@dataclass(frozen=True)
class Bag:
    recording_id: int
    target: int
    segment_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.segment_ids)


@dataclass(frozen=True, eq=False)
class BagBatch:
    """Bag k is segment_ids[offsets[k]:offsets[k + 1]] (the last runs to the end).

    sizes and bag_of_row are the bag map losses.aggregate reads: each bag's
    row count and each row's bag.
    """

    segment_ids: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray
    recording_ids: np.ndarray
    sizes: np.ndarray
    bag_of_row: np.ndarray

    @property
    def size(self) -> int:
        return len(self.segment_ids)

    @property
    def bags(self) -> list[Bag]:
        """The batch as Bag records, built on each read."""
        ids, starts = self.segment_ids.tolist(), self.offsets.tolist()
        return [Bag(rid, target, tuple(ids[a:b])) for rid, target, a, b in zip(
            self.recording_ids.tolist(), self.targets.tolist(), starts, [*starts[1:], len(ids)])]


@dataclass(frozen=True, eq=False)
class SegmentBatch:
    segment_ids: np.ndarray
    labels: np.ndarray  # UNKNOWN for rows from the unknown pool
    known: np.ndarray  # bool

    @property
    def size(self) -> int:
        return len(self.segment_ids)


def _permutation(rng: Rng, n: int) -> list[int]:
    """rng.shuffle(list(range(n))), with its n - 1 draws made in one block."""
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.randints(np.arange(n, 1, -1)).tolist()):
        order[i], order[j] = order[j], order[i]
    return order


def plan_epoch_stage1(corpus: Corpus, target_batch_size: int, seed: int) -> list[BagBatch]:
    """One epoch of recording bags packed into dynamically sized batches.

    Recordings are shuffled, then bags are appended greedily: a batch
    closes once the next bag would push it past the target and it has
    already reached 0.9x the target, which keeps every non-final batch
    within 10% of the target whenever bags are small relative to it.
    Every training recording appears exactly once per epoch. The first
    recording in shuffled order without a bag raises EmptyCluster, or
    BagTooLarge when its bag would exceed 1.1x the target.
    """
    table = corpus.table
    rng = Rng.from_seed(seed, "plan1")
    train = np.flatnonzero(~table.heldout)
    train = train[np.argsort(table.ids[train], kind="stable")]  # by recording id
    order = train[_permutation(rng, train.size)]
    if not order.size:
        return []
    first_cluster = np.cumsum(table.n_clusters) - table.n_clusters
    first_member = np.cumsum(table.sizes) - table.sizes
    sizes = table.n_clusters[order]  # a bag takes one segment per cluster
    starts = np.cumsum(sizes) - sizes  # each bag's first row in the epoch
    bag_of_row = np.repeat(np.arange(order.size), sizes)
    within = np.arange(bag_of_row.size) - starts[bag_of_row]  # the row's cluster within its bag
    clusters = first_cluster[order][bag_of_row] + within

    # a bag needs clusters, none of them empty, and at most 1.1x the target in rows
    bad = (sizes == 0) | (sizes > 1.1 * target_batch_size)
    bad[bag_of_row[table.sizes[clusters] == 0]] = True
    if bad.any():  # the first in shuffled order, told as a bag-by-bag loop tells it
        r = order[np.argmax(bad)]
        rid, n = table.ids[r], table.n_clusters[r]
        empty = np.flatnonzero(table.sizes[first_cluster[r]:first_cluster[r] + n] == 0)
        if not n:
            raise EmptyCluster(f"recording {rid} has no clusters")
        if empty.size:
            raise EmptyCluster(f"recording {rid} cluster {empty[0]} is empty")
        raise BagTooLarge(f"recording {rid} needs {n} segments, over 1.1x target {target_batch_size}")

    # bag k draws on stream spawn("bag", its recording id), one draw per cluster
    keys = derive_keys(derive_key(rng.key, "bag"), table.ids[order])
    picks = u64_at(keys[bag_of_row], within) % table.sizes[clusters].astype(np.uint64)
    segment_ids = table.members[first_member[clusters] + picks.astype(np.int64)]

    cuts, open_size = [0], 0  # the first bag of each batch, the rows of the open one
    for k, size in enumerate(sizes.tolist()):
        if k > cuts[-1] and open_size + size > target_batch_size and open_size >= 0.9 * target_batch_size:
            cuts.append(k)
            open_size = 0
        open_size += size
    rows = [*starts.tolist(), len(segment_ids)]
    return [BagBatch(segment_ids[rows[a]:rows[b]], starts[a:b] - starts[a], table.targets[order[a:b]],
                     table.ids[order[a:b]], sizes[a:b], bag_of_row[rows[a]:rows[b]] - a)
            for a, b in zip(cuts, [*cuts[1:], order.size])]


def plan_epoch_stage2(
    selected: np.ndarray,
    target_batch_size: int,
    seed: int,
    unknown_pool: np.ndarray | None = None,
    mix_fraction: float = 0.0,
) -> list[SegmentBatch]:
    """Fixed-size segment batches over an (n, 2) int64 array of (segment_id, label) rows.

    With a pool of segment ids that has rows, each batch holds
    round(mix_fraction * batch size) rows sampled from the pool (with
    replacement); that count must stay below the batch size, as the run
    configuration's rules require, so every batch keeps a known row. The
    pool draws follow the shuffle's on the same stream, batch by batch.
    """
    pool = np.empty(0, dtype=np.int64) if unknown_pool is None else unknown_pool
    n_unknown = round(mix_fraction * target_batch_size) if len(pool) else 0
    known_per_batch = target_batch_size - n_unknown

    rng = Rng.from_seed(seed, "plan2")
    rows = selected[_permutation(rng, len(selected))]
    starts = range(0, len(rows), known_per_batch)
    drawn = pool[rng.randints(np.full(len(starts) * n_unknown, len(pool)))]

    batches: list[SegmentBatch] = []
    for b, start in enumerate(starts):
        chunk = rows[start:start + known_per_batch]
        batches.append(SegmentBatch(
            np.concatenate([chunk[:, 0], drawn[b * n_unknown:(b + 1) * n_unknown]]),
            np.concatenate([chunk[:, 1], np.full(n_unknown, UNKNOWN, dtype=np.int64)]),
            np.arange(len(chunk) + n_unknown) < len(chunk)))
    return batches
