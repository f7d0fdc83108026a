"""Simulated diarization: controllable purity, over-clustering and coverage.

Replaces a real diarizer with a parameterized rewrite of each recording's
clusters, driven by the oracle labels. Per present speaker, segments are
split into ~split_factor clusters (over-clustering); a (1 - purity)
fraction of segments is then swapped pairwise between clusters so purity
and coverage degrade together; optionally noise segments are removed and
the cluster count capped by merging the smallest clusters.

Two presets mirror a weak untrained diarizer and a strong pretrained one:
  baseline       purity 0.85, split_factor 2.0, keeps noise, no cap
  pyannote-like  purity 0.97, split_factor 1.2, drops noise, max 4 clusters
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, NOISE, Recording
from .errors import EmptyRecording
from .rng import Rng


@dataclass(frozen=True)
class DiarConfig:
    purity: float = 0.85
    split_factor: float = 2.0
    max_clusters: int = 0  # 0 = unlimited
    drop_noise: bool = False
    seed: int = 0



PRESETS: dict[str, DiarConfig] = {
    "baseline": DiarConfig(purity=0.85, split_factor=2.0, max_clusters=0, drop_noise=False),
    "pyannote-like": DiarConfig(purity=0.97, split_factor=1.2, max_clusters=4, drop_noise=True),
}


def simulate_diarization(
    segment_ids: list[int],
    oracle_of: dict[int, int],
    cfg: DiarConfig,
    rng: Rng,
) -> list[list[int]]:
    """Cluster one recording's segments.

    oracle_of maps segment_id -> oracle label; all speakers outside the
    known set share one UNKNOWN label and are clustered as one pseudo
    speaker, as are NOISE segments when kept.
    """
    if not segment_ids:
        raise EmptyRecording("recording has no segments")
    kept = [s for s in segment_ids if not (cfg.drop_noise and oracle_of[s] == NOISE)]
    if not kept:
        raise EmptyRecording("all segments dropped as noise")

    by_label: dict[int, list[int]] = {}
    for sid in kept:
        by_label.setdefault(oracle_of[sid], []).append(sid)

    clusters: list[list[int]] = []
    for label in sorted(by_label):
        members = list(by_label[label])
        base = int(cfg.split_factor)
        frac = cfg.split_factor - base
        k = base + (1 if rng.float() < frac else 0)
        k = max(1, min(k, len(members)))
        rng.shuffle(members)
        # first k segments seed the clusters so none comes out empty
        parts: list[list[int]] = [[members[i]] for i in range(k)]
        for sid in members[k:]:
            parts[rng.randint(k)].append(sid)
        clusters.extend(parts)

    _inject_impurity(clusters, oracle_of, cfg.purity, rng)

    if cfg.max_clusters > 0:
        while len(clusters) > cfg.max_clusters:
            order = sorted(range(len(clusters)), key=lambda i: (len(clusters[i]), i))
            a, b = sorted(order[:2])
            clusters[a] = clusters[a] + clusters[b]
            del clusters[b]
    return clusters


def _inject_impurity(
    clusters: list[list[int]], oracle_of: dict[int, int], purity: float, rng: Rng
) -> None:
    """Swap ~(1 - purity) of the segments pairwise across clusters.

    Partners are drawn from different oracle labels so every executed
    swap actually pollutes both clusters; a leftover marked segment with
    no cross-label partner stays put.
    """
    if purity >= 1.0 or len(clusters) < 2:
        return
    marked_by_label: dict[int, list[tuple[int, int]]] = {}
    for ci, cluster in enumerate(clusters):
        for pos in range(len(cluster)):
            if rng.float() < 1.0 - purity:
                lab = oracle_of[cluster[pos]]
                marked_by_label.setdefault(lab, []).append((ci, pos))
    for slots in marked_by_label.values():
        rng.shuffle(slots)
    while True:
        nonempty = sorted((lab for lab, v in marked_by_label.items() if v),
                          key=lambda lab: (-len(marked_by_label[lab]), lab))
        if len(nonempty) < 2:
            break
        (ca, pa) = marked_by_label[nonempty[0]].pop()
        (cb, pb) = marked_by_label[nonempty[1]].pop()
        clusters[ca][pa], clusters[cb][pb] = clusters[cb][pb], clusters[ca][pa]


def apply_diarization(corpus: Corpus, cfg: DiarConfig) -> Corpus:
    """Rewrite every recording's clusters; the segment table is shared unchanged.

    Segments dropped in drop_noise mode stay in the table but belong to
    no cluster, as a manifest round trip reconstructs them.
    """
    oracle_of = dict(enumerate(corpus.segments.oracle.tolist()))
    recordings = [
        Recording(rec.recording_id, rec.target,
                  simulate_diarization(rec.segment_ids(), oracle_of, cfg,
                                       Rng.from_seed(cfg.seed, "diar", rec.recording_id)),
                  rec.heldout)
        for rec in corpus.recordings]
    return Corpus(corpus.n_speakers, recordings, corpus.segments)
