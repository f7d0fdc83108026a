"""Synthetic weakly-labeled corpus generator with known ground truth.

Each speaker is a unit latent vector. A segment is rendered by adding
per-frame gaussian noise to the speaker latent and pushing every frame
through a corpus-wide frozen affine lift followed by tanh, which makes
the feature-to-speaker map non-linear. Recordings mix one target speaker
with distractors (known speakers, plus optional speakers outside the
known set) and occasional pure-noise segments; at least one segment of
every recording belongs to its target.

Generation is deterministic: every recording draws from an RNG substream
keyed by (seed, recording_id), so serial and parallel generation agree.
It runs in two passes. The plan pass walks the recordings in order and
makes each stream's scalar draws (segment plan, frame counts), only
reserving the position of each normals call. The render pass then draws
those normals for ~RENDER_BLOCK frames at a time in one array pass,
lifts the block's latents in one call and writes the rows straight into
one preallocated float32 (total_frames, feat_dim) matrix, which becomes
the corpus's segment table. The values are bitwise those of rendering
each segment on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, NOISE, Recording, Segments, UNKNOWN
from .rng import Rng, normals_at

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
class VoicePrint:
    latent: np.ndarray  # unit vector, (latent_dim,)


@dataclass(frozen=True)
class FeatureLift:
    """Frozen affine map latent -> feature space, applied under tanh."""

    matrix: np.ndarray  # (feat_dim, latent_dim)
    bias: np.ndarray  # (feat_dim,)

    def apply(self, latents: np.ndarray) -> np.ndarray:
        return np.tanh(latents @ self.matrix.T + self.bias)


def generate_speakers(n: int, latent_dim: int, seed: int) -> list[VoicePrint]:
    """n unit latent vectors, deterministic given seed, pairwise distinct."""
    rng = Rng.from_seed(seed, "speakers")
    voices = []
    for _ in range(n):
        v = rng.normals(latent_dim)
        norm = float(np.linalg.norm(v))
        while norm < 1e-9:  # astronomically unlikely; redraw keeps the contract
            v = rng.normals(latent_dim)
            norm = float(np.linalg.norm(v))
        voices.append(VoicePrint(v / norm))
    return voices


def make_lift(cfg: SynthConfig) -> FeatureLift:
    rng = Rng.from_seed(cfg.seed, "lift")
    scale = _LIFT_GAIN / np.sqrt(cfg.latent_dim)
    matrix = rng.normals(cfg.feat_dim * cfg.latent_dim).reshape(cfg.feat_dim, cfg.latent_dim) * scale
    bias = rng.normals(cfg.feat_dim) * _LIFT_BIAS_STD
    return FeatureLift(matrix, bias)


def _segment_plan(cfg: SynthConfig, target: int, rng: Rng) -> tuple[list[int], list[int]]:
    """Oracle labels and rendering identities for one recording.

    Returns (oracle_labels, render_ids) where a render id is the index of
    the voiceprint to render with (known ids first, then unknown-pool
    ids), or NOISE for a non-speech segment.
    """
    n_seg = rng.randrange(*cfg.segments_per_recording)
    n_dis = rng.randrange(*cfg.distractors_per_recording)
    distractors: list[int] = []
    for _ in range(n_dis):
        if cfg.unknown_speaker_count > 0 and rng.float() < 0.5:
            distractors.append(cfg.n_speakers + rng.randint(cfg.unknown_speaker_count))
        else:
            other = rng.randint(cfg.n_speakers - 1)
            distractors.append(other + 1 if other >= target else other)
    distractors = sorted(set(distractors))

    render_ids: list[int] = []
    for _ in range(n_seg):
        if rng.float() < cfg.noise_segment_prob:
            render_ids.append(NOISE)
        elif not distractors or rng.float() < cfg.target_weight:
            render_ids.append(target)
        else:
            render_ids.append(rng.choice(distractors))
    if target not in render_ids:
        render_ids[0] = target

    oracle = [UNKNOWN if rid >= cfg.n_speakers else rid for rid in render_ids]
    return oracle, render_ids


# Frames rendered per block: bounds the float64 scratch of one block.
RENDER_BLOCK = 4096


@dataclass
class _Plan:
    """Pass-1 output: the recordings plus per-segment columns in segment-id order.

    `oracle` holds each segment's oracle label. Its frame noise is the
    normals(n_frames * latent_dim) call of stream `key` at `counter`; a
    noise segment (`render_id` NOISE, else the voiceprint index) draws
    its latent first, the normals(latent_dim) call at `latent_counter`
    (-1 for speech).
    """

    recordings: list[Recording]
    oracle: list[int]
    render_id: np.ndarray
    n_frames: np.ndarray
    key: np.ndarray
    counter: np.ndarray
    latent_counter: np.ndarray


def _plan_corpus(cfg: SynthConfig) -> _Plan:
    """Every recording's segments and their draw positions, without rendering.

    Each recording's stream makes the same draws, in the same order, as
    when its segments are rendered one by one; normals calls are only
    reserved (Rng.skip_normals).
    """
    recordings: list[Recording] = []
    oracles: list[int] = []
    render_ids: list[int] = []
    n_frames: list[int] = []
    keys: list[int] = []
    counters: list[int] = []
    latent_counters: list[int] = []
    for target in range(cfg.n_speakers):
        for r in range(cfg.recordings_per_speaker):
            rec_id = target * cfg.recordings_per_speaker + r
            rng = Rng.from_seed(cfg.seed, "rec", rec_id)
            oracle, rids = _segment_plan(cfg, target, rng)
            for rid in rids:
                n = rng.randrange(*cfg.frames_per_segment)
                latent_counters.append(rng.skip_normals(cfg.latent_dim) if rid == NOISE else -1)
                counters.append(rng.skip_normals(n * cfg.latent_dim))
                n_frames.append(n)
            render_ids += rids
            keys += [rng.key] * len(rids)

            # initial clusters group segments by oracle label: the target
            # first, known distractors ascending, then UNKNOWN, then NOISE
            sids = range(len(oracles), len(oracles) + len(oracle))
            order: list[int] = [target]
            order += sorted({l for l in oracle if l >= 0 and l != target})
            for sentinel in (UNKNOWN, NOISE):
                if sentinel in oracle:
                    order.append(sentinel)
            clusters: list[list[int]] = []
            for lab in order:
                members = [sid for sid, o in zip(sids, oracle) if o == lab]
                if members:
                    clusters.append(members)
            oracles += oracle
            recordings.append(Recording(rec_id, target, clusters))
    return _Plan(recordings, oracles, np.array(render_ids), np.array(n_frames),
                 np.array(keys, dtype=np.uint64), np.array(counters), np.array(latent_counters))


def _render(plan: _Plan, voices: np.ndarray, cfg: SynthConfig, lift: FeatureLift,
            frames: np.ndarray) -> None:
    """Render every segment into its rows of frames, RENDER_BLOCK frames at a time.

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
        out = frames[row_a:int(ends[b - 1])]
        out[...] = lift.apply(latents)
        # numpy hands a one-row product to BLAS gemv, whose sums may differ
        # in the last bit from gemm's: lift one-frame segments row by row
        single = (ends[a:b] - row_a - 1)[n_frames == 1]
        if single.size:
            out[single] = lift.apply(latents[single, None, :])[:, 0]
        a = b


def generate_corpus(cfg: SynthConfig) -> Corpus:
    """Full corpus: recordings, oracle-grouped initial clusters, features."""
    voices = generate_speakers(cfg.n_speakers + cfg.unknown_speaker_count, cfg.latent_dim, cfg.seed)
    lift = make_lift(cfg)
    plan = _plan_corpus(cfg)
    frames = np.empty((int(plan.n_frames.sum()), cfg.feat_dim), dtype=np.float32)
    _render(plan, np.stack([v.latent for v in voices]), cfg, lift, frames)

    bounds = np.concatenate([[0], np.cumsum(plan.n_frames)])
    segments = Segments(frames, bounds, np.array(plan.oracle, dtype=np.int64))
    return Corpus(cfg.n_speakers, plan.recordings, segments)
