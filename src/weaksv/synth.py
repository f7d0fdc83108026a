"""Synthetic weakly-labeled corpus generator with known ground truth.

Each speaker is a unit latent vector, one row of the (n, latent_dim)
array generate_speakers returns. A segment is rendered by adding
per-frame gaussian noise to the speaker latent and pushing every frame
through a corpus-wide frozen affine lift followed by tanh, which makes
the feature-to-speaker map non-linear. Recordings mix one target speaker
with distractors (known speakers, plus optional speakers outside the
known set) and occasional pure-noise segments; at least one segment of
every recording belongs to its target.

Generation is deterministic: every recording draws from an RNG substream
keyed by (seed, recording_id), so serial and parallel generation agree.
It runs in two passes. The plan pass makes every recording's draws
(segment plan, frame counts) for all recordings at once, in array rounds
at the (key, counter) pairs a recording-by-recording loop would use, and
emits the cluster table; it only reserves the position of each normals
call. The render pass then draws those normals for ~RENDER_BLOCK frames
at a time in one array pass and lifts the block's latents in one call.
Each block's float32 frames are pooled into their segments' means at
once and written to corpus.feat, then dropped: no frame matrix is ever
held, and the corpus keeps only the means. The frames are bitwise those
of rendering each segment on its own, whatever the block size.
RENDER_BLOCK is 1024 frames, so a block's largest float64 intermediate,
its lifted rows (1024 x 20 x 8 B = 160 KiB at feat_dim 20), fits in L2.
A larger block rendered no faster and only grew the heap the process
keeps after gen; a smaller one lowered no peak further.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ClusterTable, Corpus, NOISE, Segments, UNKNOWN, feat_header, pool_frames
from .rng import Rng, derive_keys, floats_at, normals_at, randints_at

_LIFT_GAIN = 2.0
_LIFT_BIAS_STD = 0.2


@dataclass(frozen=True)
class SynthConfig:
    n_speakers: int = 40
    latent_dim: int = 8
    feat_dim: int = 20
    recordings_per_speaker: int = 8
    segments_per_recording: tuple[int, int] = (6, 10)
    frames_per_segment: tuple[int, int] = (10, 30)
    distractors_per_recording: tuple[int, int] = (0, 2)
    noise_segment_prob: float = 0.1
    within_speaker_noise: float = 0.3
    unknown_speaker_count: int = 10
    # probability that a non-noise segment voices the target when the
    # recording has distractors; remaining mass is uniform over them
    target_weight: float = 0.5
    seed: int = 1234


@dataclass(frozen=True)
class FeatureLift:
    """Frozen affine map latent -> feature space, applied under tanh."""

    matrix: np.ndarray  # (feat_dim, latent_dim)
    bias: np.ndarray  # (feat_dim,)

    def apply(self, latents: np.ndarray) -> np.ndarray:
        return np.tanh(latents @ self.matrix.T + self.bias)


def generate_speakers(n: int, latent_dim: int, seed: int) -> np.ndarray:
    """An (n, latent_dim) array whose rows are the speakers' unit latents, deterministic given seed,
    pairwise distinct."""
    rng = Rng.from_seed(seed, "speakers")
    voices = np.empty((n, latent_dim))
    for i in range(n):
        v = rng.normals(latent_dim)
        norm = float(np.linalg.norm(v))
        while norm < 1e-9:  # astronomically unlikely; redraw keeps the contract
            v = rng.normals(latent_dim)
            norm = float(np.linalg.norm(v))
        voices[i] = v / norm
    return voices


def make_lift(cfg: SynthConfig) -> FeatureLift:
    rng = Rng.from_seed(cfg.seed, "lift")
    scale = _LIFT_GAIN / np.sqrt(cfg.latent_dim)
    matrix = rng.normals(cfg.feat_dim * cfg.latent_dim).reshape(cfg.feat_dim, cfg.latent_dim) * scale
    bias = rng.normals(cfg.feat_dim) * _LIFT_BIAS_STD
    return FeatureLift(matrix, bias)


# Frames rendered per block: bounds the float64 scratch of one block, sized
# so that its lifted rows fit in L2 (see the module docstring).
RENDER_BLOCK = 1024


@dataclass
class _Plan:
    """Pass-1 output: the cluster table plus per-segment columns in segment-id order.

    `oracle` holds each segment's oracle label. Its frame noise is the
    normals(n_frames * latent_dim) call of stream `key` at `counter`; a
    noise segment (`render_id` NOISE, else the speaker's row of the
    latents) draws its latent first, the normals(latent_dim) call at
    `latent_counter` (-1 for speech).
    """

    table: ClusterTable
    oracle: np.ndarray
    render_id: np.ndarray
    n_frames: np.ndarray
    key: np.ndarray
    counter: np.ndarray
    latent_counter: np.ndarray


def _plan_corpus(cfg: SynthConfig) -> _Plan:
    """Every recording's segments and their draw positions, without rendering.

    Recording r draws on stream Rng.from_seed(seed, "rec", r) what a loop
    over its segments draws, in the same order: its segment and distractor
    counts, then per distractor an optional unknown-pool coin and a speaker,
    then per segment a noise coin, a target coin and a distractor pick as
    far as each is needed, then per segment its frame count. Each draw is
    made for all recordings at once (floats_at, randints_at), one round per
    segment slot, at the counters the previous round left; normals calls
    are only reserved. Initial clusters group a recording's segments by oracle
    label: the target first, known distractors ascending, then UNKNOWN,
    then NOISE.
    """
    n_rec, n_known, dim = cfg.n_speakers * cfg.recordings_per_speaker, cfg.n_speakers, cfg.latent_dim
    ids = np.arange(n_rec, dtype=np.int64)
    targets = ids // cfg.recordings_per_speaker
    keys = derive_keys(Rng.from_seed(cfg.seed, "rec").key, ids)
    (seg_lo, seg_hi), (dis_lo, dis_hi) = cfg.segments_per_recording, cfg.distractors_per_recording
    n_seg = seg_lo + randints_at(keys, 0, seg_hi - seg_lo + 1)
    n_dis = dis_lo + randints_at(keys, 1, dis_hi - dis_lo + 1)

    # each distractor takes a fixed number of draws, so all of them come at once
    per = 2 if cfg.unknown_speaker_count > 0 else 1
    ctr = 2 + per * np.arange(max(1, n_dis.max()))  # one column at least, for the picks below
    other = randints_at(keys[:, None], ctr + per - 1, n_known - 1)
    dis = other + (other >= targets[:, None])
    if per == 2:
        unknown = floats_at(keys[:, None], ctr) < 0.5
        dis[unknown] = n_known + randints_at(keys[:, None], ctr + 1, cfg.unknown_speaker_count)[unknown]
    # sorted(set(...)) of each row: duplicates and unused slots sort last as `pad`
    pad = np.iinfo(np.int64).max
    dis = np.sort(np.where(np.arange(dis.shape[1]) < n_dis[:, None], dis, pad), axis=1)
    dis[:, 1:][dis[:, 1:] == dis[:, :-1]] = pad
    dis = np.sort(dis, axis=1)
    n_uniq = np.count_nonzero(dis != pad, axis=1)

    ctr = 2 + per * n_dis
    slots = np.arange(n_seg.max())
    live = slots < n_seg[:, None]
    render = np.empty((n_rec, slots.size), dtype=np.int64)
    for s in slots:
        noise = floats_at(keys, ctr) < cfg.noise_segment_prob
        voiced = floats_at(keys, ctr + 1) < cfg.target_weight
        pick = dis[ids, randints_at(keys, ctr + 2, np.maximum(n_uniq, 1))]
        render[:, s] = np.where(noise, NOISE, np.where((n_uniq == 0) | voiced, targets, pick))
        ctr += live[:, s] * np.where(noise | (n_uniq == 0), 1, np.where(voiced, 2, 3))
    forced = ~((render == targets[:, None]) & live).any(axis=1)
    render[forced, 0] = targets[forced]

    n_frames, counter, latent_counter = (np.empty_like(render) for _ in range(3))
    lo, hi = cfg.frames_per_segment
    for s in slots:
        n_frames[:, s] = n = lo + randints_at(keys, ctr, hi - lo + 1)
        noise = render[:, s] == NOISE
        latent_counter[:, s] = np.where(noise, ctr + 1, -1)
        counter[:, s] = ctr + 1 + noise * 2 * ((dim + 1) // 2)
        ctr = np.where(live[:, s], counter[:, s] + 2 * ((n * dim + 1) // 2), ctr)

    render_id = render[live]
    oracle = np.where(render_id >= n_known, UNKNOWN, render_id)
    owner = np.repeat(ids, n_seg)
    rank = np.where(oracle == targets[owner], -3, np.where(oracle < 0, n_known - oracle, oracle))
    members = np.lexsort((rank, owner))
    first = np.flatnonzero(np.diff(owner[members], prepend=-1) | np.diff(rank[members], prepend=-4))
    table = ClusterTable(ids, targets, np.zeros(n_rec, dtype=bool),
                         np.bincount(owner[members[first]], minlength=n_rec), np.diff(first, append=members.size),
                         members)
    return _Plan(table, oracle, render_id, n_frames[live], np.repeat(keys, n_seg), counter[live],
                 latent_counter[live])


def _render(plan: _Plan, voices: np.ndarray, cfg: SynthConfig, lift: FeatureLift):
    """Yield (a, b, rows): segments a..b-1 rendered as float64 frame rows, RENDER_BLOCK frames at a time.

    Per segment the arithmetic is base + within_speaker_noise * noise
    under the lift, as for a segment rendered alone, so the rows are
    bitwise the same.
    """
    dim = cfg.latent_dim
    ends = np.cumsum(plan.n_frames)
    a = 0
    while a < ends.size:
        row_a = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(ends, row_a + RENDER_BLOCK, side="right")))
        n_frames = plan.n_frames[a:b]
        noise = plan.render_id[a:b] == NOISE
        n_noise = int(np.count_nonzero(noise))
        z = normals_at(
            np.concatenate([plan.key[a:b][noise], plan.key[a:b]]),
            np.concatenate([plan.latent_counter[a:b][noise], plan.counter[a:b]]),
            np.concatenate([np.full(n_noise, dim), n_frames * dim]))
        bases = voices[np.where(noise, 0, plan.render_id[a:b])]
        bases[noise] = z[:n_noise * dim].reshape(n_noise, dim) / np.sqrt(dim)
        noise_frames = z[n_noise * dim:].reshape(-1, dim)
        latents = np.repeat(bases, n_frames, axis=0) + cfg.within_speaker_noise * noise_frames
        rows = lift.apply(latents)
        # numpy hands a one-row product to BLAS gemv, whose sums may differ
        # in the last bit from gemm's: lift one-frame segments row by row
        single = (ends[a:b] - row_a - 1)[n_frames == 1]
        if single.size:
            rows[single] = lift.apply(latents[single, None, :])[:, 0]
        yield a, b, rows
        a = b


def generate_corpus(cfg: SynthConfig, feat=None) -> Corpus:
    """Full corpus: the cluster table of oracle-grouped initial clusters, and pooled features.

    Each block of float32 frames is pooled into its segments' means and
    then written to feat, if given (a file open for binary writing),
    after corpus.feat's header: feat receives corpus.feat's bytes, and no
    frame matrix is held.
    """
    voices = generate_speakers(cfg.n_speakers + cfg.unknown_speaker_count, cfg.latent_dim, cfg.seed)
    lift = make_lift(cfg)
    plan = _plan_corpus(cfg)
    if feat is not None:
        feat.write(feat_header(cfg.feat_dim))
    means = np.empty((plan.n_frames.size, cfg.feat_dim))
    for a, b, rows in _render(plan, voices, cfg, lift):
        frames = rows.astype("<f4")
        pool_frames(frames, plan.n_frames[a:b], means[a:b])
        if feat is not None:
            feat.write(frames)
    means.flags.writeable = False
    return Corpus(cfg.n_speakers, plan.table, Segments(means, plan.n_frames, plan.oracle))
