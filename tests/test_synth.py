import numpy as np
import pytest

from weaksv.corpus import NOISE, UNKNOWN, Corpus, Recording, validate_corpus
from weaksv.rng import Rng
import weaksv.synth
from weaksv.synth import (
    SynthConfig,
    generate_corpus,
    generate_speakers,
    make_lift,
)

from conftest import make_segments, segment_features


class TestGenerateSpeakers:
    def test_unit_norm(self):
        voices = generate_speakers(2, 8, seed=1)
        for v in voices:
            assert abs(np.linalg.norm(v.latent) - 1.0) < 1e-6

    def test_deterministic(self):
        a = generate_speakers(5, 8, seed=1)
        b = generate_speakers(5, 8, seed=1)
        for x, y in zip(a, b):
            assert np.array_equal(x.latent, y.latent)

    def test_pairwise_distinct(self):
        # brute-force pairwise cosine check over a large draw
        voices = generate_speakers(500, 8, seed=3)
        mat = np.stack([v.latent for v in voices])
        cos = mat @ mat.T
        np.fill_diagonal(cos, -1.0)
        assert cos.max() < 1.0 - 1e-6


class TestRenderSegment:
    def test_noise_free_rendering_is_deterministic(self):
        cfg = SynthConfig(n_speakers=4, recordings_per_speaker=2, within_speaker_noise=1e-12,
                          unknown_speaker_count=0, noise_segment_prob=0.0, seed=5)
        a, b = generate_corpus(cfg), generate_corpus(cfg)
        voices = generate_speakers(cfg.n_speakers, cfg.latent_dim, cfg.seed)
        lift = make_lift(cfg)
        assert np.array_equal(a.segments.frames, b.segments.frames)
        for sid, spk in enumerate(a.segments.oracle.tolist()):
            # effectively noiseless: every frame is the lifted latent
            lifted = lift.apply(voices[spk].latent[None, :])[0]
            assert np.allclose(segment_features(a.segments, sid), lifted, atol=1e-6)

    def test_distinct_speakers_render_distinct_features(self):
        cfg = SynthConfig(n_speakers=2, recordings_per_speaker=2, within_speaker_noise=1e-12,
                          noise_segment_prob=0.0, unknown_speaker_count=0, seed=1)
        corpus = generate_corpus(cfg)
        speaker_of_row = np.repeat(corpus.segments.oracle, np.diff(corpus.segments.bounds))
        a, b = (corpus.segments.frames[speaker_of_row == spk].mean(axis=0) for spk in (0, 1))
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert 1.0 - cos > 1e-3

    def test_values_finite_and_bounded(self):
        corpus = generate_corpus(SynthConfig(n_speakers=6, recordings_per_speaker=3,
                                             frames_per_segment=(50, 50), seed=2))
        frames = corpus.segments.frames
        assert frames.dtype == np.float32
        assert np.all(np.isfinite(frames))
        assert np.all(np.abs(frames) <= 1.0)  # tanh range

    def test_default_noise_keeps_speakers_separable(self):
        # nearest-centroid oracle: classify each segment's mean frame
        # against the noiseless rendering of every known speaker;
        # threshold fixed from the development pilot
        cfg = SynthConfig(seed=777)
        corpus = generate_corpus(cfg)
        voices = generate_speakers(cfg.n_speakers + cfg.unknown_speaker_count,
                                   cfg.latent_dim, cfg.seed)
        lift = make_lift(cfg)
        centroids = np.stack([lift.apply(v.latent[None, :])[0] for v in voices[: cfg.n_speakers]])
        oracle = corpus.segments.oracle.tolist()
        known = [sid for sid, spk in enumerate(oracle) if spk >= 0]
        assert len(known) >= 1000
        hits = 0
        for sid in known:
            mean = segment_features(corpus.segments, sid).astype(np.float64).mean(axis=0)
            pred = int(np.argmin(((centroids - mean) ** 2).sum(axis=1)))
            hits += pred == oracle[sid]
        assert hits / len(known) > 0.95


class TestGenerateCorpus:
    def test_counts_follow_config(self):
        cfg = SynthConfig()
        corpus = generate_corpus(cfg)
        assert len(corpus.recordings) == 320
        assert 1920 <= len(corpus.segments) <= 3200

    def test_every_speaker_targets_expected_recordings(self):
        cfg = SynthConfig(n_speakers=6, recordings_per_speaker=4, seed=2)
        corpus = generate_corpus(cfg)
        for spk in range(6):
            assert sum(r.target == spk for r in corpus.recordings) == 4

    def test_no_noise_when_probability_zero(self):
        cfg = SynthConfig(n_speakers=5, recordings_per_speaker=3, noise_segment_prob=0.0, seed=4)
        corpus = generate_corpus(cfg)
        assert not (corpus.segments.oracle == NOISE).any()

    def test_unknown_segments_present_and_never_targets(self):
        cfg = SynthConfig(n_speakers=10, recordings_per_speaker=6, unknown_speaker_count=10, seed=5)
        corpus = generate_corpus(cfg)
        assert (corpus.segments.oracle == UNKNOWN).any()
        assert all(0 <= r.target < 10 for r in corpus.recordings)

    def test_no_unknowns_when_pool_empty(self):
        cfg = SynthConfig(n_speakers=5, recordings_per_speaker=3, unknown_speaker_count=0, seed=6)
        corpus = generate_corpus(cfg)
        assert not (corpus.segments.oracle == UNKNOWN).any()

    def test_generation_is_bit_identical(self):
        cfg = SynthConfig(n_speakers=5, recordings_per_speaker=3, seed=11)
        a = generate_corpus(cfg)
        b = generate_corpus(cfg)
        assert np.array_equal(a.segments.frames, b.segments.frames)
        assert np.array_equal(a.segments.bounds, b.segments.bounds)
        assert all(ra.clusters == rb.clusters for ra, rb in zip(a.recordings, b.recordings))

    def test_validates(self, small_corpus):
        assert validate_corpus(small_corpus) == []

    def test_noise_fraction_within_binomial_ci(self):
        # per-segment noise draws are iid; the rare forced-target rewrite
        # perturbs the rate by well under the CI width
        p = 0.12
        cfg = SynthConfig(n_speakers=20, recordings_per_speaker=10, noise_segment_prob=p, seed=13)
        corpus = generate_corpus(cfg)
        n = len(corpus.segments)
        k = int((corpus.segments.oracle == NOISE).sum())
        half_width = 2.58 * np.sqrt(p * (1 - p) / n)
        assert abs(k / n - p) < half_width + 0.002


# ---------------------------------------------------------------------------
# Block rendering against the per-segment loop it replaced
# ---------------------------------------------------------------------------


def _reference_render_segment(voice, n_frames, cfg, rng, lift, dtype):
    noise = rng.normals(n_frames * cfg.latent_dim).reshape(n_frames, cfg.latent_dim)
    latents = voice.latent[None, :] + cfg.within_speaker_noise * noise
    return lift.apply(latents).astype(dtype)


def _reference_corpus(cfg, dtype=np.float32):
    """Each segment rendered on its own, drawing from its recording's stream in turn."""
    voices = generate_speakers(cfg.n_speakers + cfg.unknown_speaker_count, cfg.latent_dim, cfg.seed)
    lift = make_lift(cfg)
    recordings, features, oracles = [], [], []
    for target in range(cfg.n_speakers):
        for r in range(cfg.recordings_per_speaker):
            rec_id = target * cfg.recordings_per_speaker + r
            rng = Rng.from_seed(cfg.seed, "rec", rec_id)
            oracle, render_ids = weaksv.synth._segment_plan(cfg, target, rng)
            sids = list(range(len(oracles), len(oracles) + len(render_ids)))
            for rid in render_ids:
                n_frames = rng.randrange(*cfg.frames_per_segment)
                if rid == NOISE:
                    latent = rng.normals(cfg.latent_dim) / np.sqrt(cfg.latent_dim)
                    feats = lift.apply(latent[None, :].repeat(n_frames, 0)
                                       + cfg.within_speaker_noise
                                       * rng.normals(n_frames * cfg.latent_dim).reshape(n_frames, -1))
                    feats = feats.astype(dtype)
                else:
                    feats = _reference_render_segment(voices[rid], n_frames, cfg, rng, lift, dtype)
                features.append(feats)
            oracles += oracle
            order = [target] + sorted({l for l in oracle if l >= 0 and l != target})
            order += [s for s in (UNKNOWN, NOISE) if s in oracle]
            clusters = [m for lab in order if (m := [s for s, o in zip(sids, oracle) if o == lab])]
            recordings.append(Recording(rec_id, target, clusters))
    return Corpus(cfg.n_speakers, recordings, make_segments(features, oracles))


def _assert_same_corpus(got, want):
    g, w = got.segments, want.segments
    assert g.bounds.tolist() == w.bounds.tolist()
    assert g.oracle.tolist() == w.oracle.tolist()
    assert g.frames.dtype == w.frames.dtype and g.frames.shape == w.frames.shape
    for sid in range(len(w)):
        assert segment_features(g, sid).tobytes() == segment_features(w, sid).tobytes(), sid
    assert [(r.recording_id, r.target, r.clusters, r.heldout) for r in got.recordings] == [
        (r.recording_id, r.target, r.clusters, r.heldout) for r in want.recordings]
    assert got.n_speakers == want.n_speakers
    assert (got.segments.oracle == UNKNOWN).any() == (want.segments.oracle == UNKNOWN).any()


_SMALL = dict(n_speakers=6, recordings_per_speaker=3)

PARITY_CONFIGS = {
    "default": SynthConfig(),
    "latent3_odd_frames": SynthConfig(**_SMALL, latent_dim=3, frames_per_segment=(3, 9), seed=31),
    "latent5_odd_frames": SynthConfig(**_SMALL, latent_dim=5, frames_per_segment=(1, 7), seed=32),
    "no_noise": SynthConfig(**_SMALL, noise_segment_prob=0.0, seed=33),
    "all_noise": SynthConfig(**_SMALL, noise_segment_prob=1.0, seed=34),
    "no_unknowns": SynthConfig(**_SMALL, unknown_speaker_count=0, seed=35),
    "one_frame": SynthConfig(**_SMALL, frames_per_segment=(1, 1), seed=36),
    "short_segments": SynthConfig(n_speakers=12, recordings_per_speaker=4, latent_dim=5,
                                  frames_per_segment=(1, 3), seed=37),
}


class TestBlockParity:
    @pytest.mark.parametrize("name", PARITY_CONFIGS)
    def test_matches_per_segment_loop(self, name):
        cfg = PARITY_CONFIGS[name]
        _assert_same_corpus(generate_corpus(cfg), _reference_corpus(cfg))

    def test_default_corpus_spans_many_blocks(self):
        corpus = generate_corpus(SynthConfig())
        total = corpus.segments.frames.shape[0]
        assert total > 5 * weaksv.synth.RENDER_BLOCK

    # 1: every segment is longer than a block; 37: blocks end mid-recording
    @pytest.mark.parametrize("block", [1, 37, 10**9])
    def test_block_size_does_not_change_the_corpus(self, monkeypatch, block):
        cfg = SynthConfig(**_SMALL, frames_per_segment=(1, 40), seed=38)
        want = _reference_corpus(cfg)
        monkeypatch.setattr(weaksv.synth, "RENDER_BLOCK", block)
        _assert_same_corpus(generate_corpus(cfg), want)

    @pytest.mark.parametrize("name", ["one_frame", "short_segments", "latent3_odd_frames"])
    def test_float64_rows_match_per_segment_lift(self, name):
        # rendered into a float64 matrix, no float32 rounding can hide a
        # last-bit difference of the lift (e.g. BLAS gemv against gemm)
        cfg = PARITY_CONFIGS[name]
        plan = weaksv.synth._plan_corpus(cfg)
        voices = generate_speakers(cfg.n_speakers + cfg.unknown_speaker_count, cfg.latent_dim, cfg.seed)
        frames = np.empty((int(plan.n_frames.sum()), cfg.feat_dim))
        weaksv.synth._render(plan, np.stack([v.latent for v in voices]), cfg, make_lift(cfg), frames)
        want = _reference_corpus(cfg, dtype=np.float64)
        assert np.array_equal(frames, want.segments.frames)

    def test_segments_are_consecutive_rows_of_one_frame_matrix(self):
        corpus = generate_corpus(PARITY_CONFIGS["latent3_odd_frames"])
        frames, bounds = corpus.segments.frames, corpus.segments.bounds
        assert frames.dtype == np.float32 and frames.flags.c_contiguous
        assert frames.shape == (bounds[-1], corpus.feat_dim)
        assert bounds.dtype == np.int64 and bounds.shape == (len(corpus.segments) + 1,)
        assert bounds[0] == 0 and np.all(np.diff(bounds) >= 1)
