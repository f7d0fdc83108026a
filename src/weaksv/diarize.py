"""Simulated diarization: controllable purity, over-clustering and coverage.

Replaces a real diarizer with a parameterized rewrite of each recording's
clusters, driven by the oracle labels. Per present speaker, segments are
split into ~split_factor clusters (over-clustering); a (1 - purity)
fraction of segments is then swapped pairwise between clusters so purity
and coverage degrade together; optionally noise segments are removed and
the cluster count capped by merging the smallest clusters. Every
recording draws on its own stream, keyed by its id, and each step is
drawn for all recordings at once (see apply_diarization).

Two presets mirror a weak untrained diarizer and a strong pretrained one:
  baseline       purity 0.85, split_factor 2.0, keeps noise, no cap
  pyannote-like  purity 0.97, split_factor 1.2, drops noise, max 4 clusters
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, NOISE
from .errors import EmptyRecording
from .rng import Rng, derive_keys, floats_at, randints_at


@dataclass(frozen=True)
class DiarConfig:
    purity: float = 0.85
    split_factor: float = 2.0
    max_clusters: int = 0  # 0 = unlimited
    drop_noise: bool = False
    seed: int = 0


PRESETS: dict[str, DiarConfig] = {
    "baseline": DiarConfig(),
    "pyannote-like": DiarConfig(purity=0.97, split_factor=1.2, max_clusters=4, drop_noise=True),
}


def _shuffle_rows(rows: np.ndarray, lengths: np.ndarray, keys: np.ndarray, counters: np.ndarray) -> None:
    """Rng(keys[g]).shuffle of the first lengths[g] entries of row g from counter counters[g], in place:
    Fisher-Yates in rounds of its index i, where every row longer than i draws its randint(i + 1)."""
    for i in range(rows.shape[1] - 1, 0, -1):
        g = np.flatnonzero(lengths > i)
        j = randints_at(keys[g], counters[g] + lengths[g] - 1 - i, i + 1)
        rows[g, i], rows[g, j] = rows[g, j], rows[g, i]


def _swap_pairs(slots: list[list[int]], labels: list[int]) -> list[tuple[int, int]]:
    """One recording's marked slots (a list per label) paired across labels: each step pops the last slot of
    the two labels with the most left, ties to the smaller label. A slot pairs at most once."""
    marked = dict(zip(labels, slots))
    pairs = []
    while True:
        nonempty = sorted((lab for lab, v in marked.items() if v), key=lambda lab: (-len(marked[lab]), lab))
        if len(nonempty) < 2:
            return pairs
        pairs.append((marked[nonempty[0]].pop(), marked[nonempty[1]].pop()))


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Where each of back-to-back runs of the given lengths starts."""
    return np.cumsum(lengths) - lengths


def apply_diarization(corpus: Corpus, cfg: DiarConfig) -> Corpus:
    """Rewrite every recording's clusters; the segment table is shared unchanged.

    A recording draws on stream Rng.from_seed(cfg.seed, "diar", its id).
    Per oracle label of its members, ascending: a float for the label's
    cluster count k, a shuffle of its members and a randint(k) for each
    past the first k, which seed the clusters. Then, when purity < 1 and
    it has two clusters or more, a float per member to mark it, and a
    shuffle of each label's marked slots (labels in order of their first
    slot). Each step is drawn for all recordings at once, at the counters
    the step before left. Marked slots swap across labels (_swap_pairs),
    and with max_clusters the two smallest clusters merge, ties to the
    earlier, until max_clusters remain; neither draws.

    Segments dropped in drop_noise mode stay in the table but belong to
    no cluster, as a manifest round trip reconstructs them. Raises
    EmptyRecording for a recording without segments to cluster.
    """
    table, oracle = corpus.table, corpus.segments.oracle
    n_rec = table.ids.size
    keys = derive_keys(Rng.from_seed(cfg.seed, "diar").key, table.ids)
    owner = table.owners()
    labels = oracle[table.members]
    kept = np.flatnonzero((labels != NOISE) | (not cfg.drop_noise))
    n_kept = np.bincount(owner[kept], minlength=n_rec)
    if not n_kept.all():
        raise EmptyRecording(f"recording {table.ids[np.argmin(n_kept)]} has no segments to cluster")

    # label groups: a recording's kept members by label, each in member order
    kept = kept[np.lexsort((labels[kept], owner[kept]))]
    owner, labels = owner[kept], labels[kept]
    starts = np.flatnonzero(np.diff(owner, prepend=-1) | np.diff(labels, prepend=NOISE - 1))
    n, g_rec = np.diff(starts, append=kept.size), owner[starts]
    per_rec = np.bincount(g_rec, minlength=n_rec)
    rank = np.arange(starts.size) - np.repeat(_starts(per_rec), per_rec)  # a group's place in its recording
    base = int(cfg.split_factor)
    ctr, k = np.zeros_like(n), np.empty_like(n)  # a group's first counter and cluster count
    for r in range(per_rec.max(initial=0)):
        g = np.flatnonzero(rank == r)
        if r:  # the group before drew 1 float, n - 1 shuffle draws and n - k assignments
            ctr[g] = ctr[g - 1] + 2 * n[g - 1] - k[g - 1]
        k[g] = np.clip(base + (floats_at(keys[g_rec[g]], ctr[g]) < cfg.split_factor - base), 1, n[g])

    group = np.repeat(np.arange(starts.size), n)
    pos = np.arange(kept.size) - starts[group]
    rows = np.empty((starts.size, n.max(initial=1)), dtype=np.int64)
    rows[group, pos] = table.members[kept]
    _shuffle_rows(rows, n, keys[g_rec], ctr + 1)
    gk = k[group]  # the first k members seed the clusters, and each later one joins one
    part = np.where(pos < gk, pos, randints_at(keys[owner], ctr[group] + n[group] - gk + pos, gk))
    cluster = np.repeat(_starts(k), n) + part
    order = np.lexsort((pos, cluster))
    members, owner = rows[group, pos][order], owner[order]
    n_clusters, sizes = np.add.reduceat(k, _starts(per_rec)), np.bincount(cluster, minlength=k.sum())

    if cfg.purity < 1.0:
        split_end = (ctr + 2 * n - k)[np.cumsum(per_rec) - 1]
        slot = np.arange(members.size) - np.repeat(_starts(n_kept), n_kept)
        # a recording of one cluster has one label, so it makes no swap whatever it marks
        marked = floats_at(keys[owner], split_end[owner] + slot) < 1.0 - cfg.purity
        # one list of marked slots per recording and label, the lists in order of their first slot
        at = np.flatnonzero(marked)
        code = np.unique(oracle[members[at]], return_inverse=True)[1]  # labels as 0, 1, ...
        _, first, which = np.unique(owner[at] * (code.max(initial=0) + 1) + code, return_index=True,
                                    return_inverse=True)
        lid = np.argsort(np.argsort(first))[which]
        at = at[np.argsort(lid, kind="stable")]
        lid, m = np.sort(lid), np.bincount(lid)
        slots = np.empty((m.size, m.max(initial=1)), dtype=np.int64)
        slots[lid, np.arange(at.size) - _starts(m)[lid]] = at
        l_rec = owner[slots[:, 0]]
        skip = np.cumsum(m - 1) - (m - 1)  # a list's shuffle draws m - 1, after the floats
        _shuffle_rows(slots, m, keys[l_rec], split_end[l_rec] + n_kept[l_rec] + skip
                      - skip[np.searchsorted(l_rec, l_rec)])
        pairs, heads = [], np.flatnonzero(np.diff(l_rec, prepend=-1)).tolist()
        slots_l, m_l, labels_l = slots.tolist(), m.tolist(), oracle[members[slots[:, 0]]].tolist()
        for a, b in zip(heads, [*heads[1:], m.size]):
            if b - a > 1:
                pairs += _swap_pairs([slots_l[i][:m_l[i]] for i in range(a, b)], labels_l[a:b])
        if pairs:
            pa, pb = np.array(pairs).T
            members[pa], members[pb] = members[pb], members[pa]

    if cfg.max_clusters > 0:
        keep = np.ones(sizes.size, dtype=bool)
        first_cluster, edges = _starts(n_clusters), np.concatenate([[0], np.cumsum(sizes)])
        for r in np.flatnonzero(n_clusters > cfg.max_clusters).tolist():
            a, b = first_cluster[r], first_cluster[r] + n_clusters[r]
            flat, cuts = members[edges[a]:edges[b]].tolist(), (edges[a:b + 1] - edges[a]).tolist()
            merged = [flat[x:y] for x, y in zip(cuts, cuts[1:])]
            while len(merged) > cfg.max_clusters:
                x, y = sorted(sorted(range(len(merged)), key=lambda i: (len(merged[i]), i))[:2])
                merged[x] += merged.pop(y)
            members[edges[a]:edges[b]] = [sid for c in merged for sid in c]
            sizes[a:a + len(merged)] = [len(c) for c in merged]
            keep[a + len(merged):b] = False
        n_clusters, sizes = np.minimum(n_clusters, cfg.max_clusters), sizes[keep]
    return Corpus(corpus.n_speakers, replace(table, n_clusters=n_clusters, sizes=sizes, members=members),
                  corpus.segments)
