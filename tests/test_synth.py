import io

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from weaksv.corpus import NOISE, UNKNOWN, Recording, save_manifest, validate_corpus
from weaksv.rng import Rng
import weaksv.synth
from weaksv.synth import (
    SynthConfig,
    generate_corpus,
    generate_speakers,
    make_lift,
)

from conftest import (corpus_of, feat_bytes, feat_frames, frame_bounds, generate_with_frames, make_segments,
                      segment_means)


class TestGenerateSpeakers:
    def test_unit_norm(self):
        voices = generate_speakers(2, 8, seed=1)
        assert voices.shape == (2, 8) and voices.dtype == np.float64
        for v in voices:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_deterministic(self):
        assert np.array_equal(generate_speakers(5, 8, seed=1), generate_speakers(5, 8, seed=1))

    def test_pairwise_distinct(self):
        # brute-force pairwise cosine check over a large draw
        mat = generate_speakers(500, 8, seed=3)
        cos = mat @ mat.T
        np.fill_diagonal(cos, -1.0)
        assert cos.max() < 1.0 - 1e-6


class TestRenderSegment:
    def test_noise_free_rendering_is_deterministic(self):
        cfg = SynthConfig(n_speakers=4, recordings_per_speaker=2, within_speaker_noise=1e-12,
                          unknown_speaker_count=0, noise_segment_prob=0.0, seed=5)
        (a, frames_a), (b, frames_b) = generate_with_frames(cfg), generate_with_frames(cfg)
        voices = generate_speakers(cfg.n_speakers, cfg.latent_dim, cfg.seed)
        lift = make_lift(cfg)
        assert frames_a.tobytes() == frames_b.tobytes()
        bounds = frame_bounds(a.segments)
        for sid, spk in enumerate(a.segments.oracle.tolist()):
            # effectively noiseless: every frame is the lifted latent
            lifted = lift.apply(voices[spk][None, :])[0]
            assert np.allclose(frames_a[bounds[sid]:bounds[sid + 1]], lifted, atol=1e-6)

    def test_distinct_speakers_render_distinct_features(self):
        cfg = SynthConfig(n_speakers=2, recordings_per_speaker=2, within_speaker_noise=1e-12,
                          noise_segment_prob=0.0, unknown_speaker_count=0, seed=1)
        corpus, frames = generate_with_frames(cfg)
        speaker_of_row = np.repeat(corpus.segments.oracle, corpus.segments.n_frames)
        a, b = (frames[speaker_of_row == spk].mean(axis=0) for spk in (0, 1))
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert 1.0 - cos > 1e-3

    def test_values_finite_and_bounded(self):
        _, frames = generate_with_frames(SynthConfig(n_speakers=6, recordings_per_speaker=3,
                                                     frames_per_segment=(50, 50), seed=2))
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
        centroids = np.stack([lift.apply(v[None, :])[0] for v in voices[: cfg.n_speakers]])
        oracle = corpus.segments.oracle.tolist()
        known = [sid for sid, spk in enumerate(oracle) if spk >= 0]
        assert len(known) >= 1000
        hits = 0
        for sid in known:
            mean = corpus.mean_frames()[sid]
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
        (a, frames_a), (b, frames_b) = generate_with_frames(cfg), generate_with_frames(cfg)
        assert frames_a.tobytes() == frames_b.tobytes()
        assert a.segments.means.tobytes() == b.segments.means.tobytes()
        assert np.array_equal(a.segments.n_frames, b.segments.n_frames)
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
# Reference plan: one recording and one draw at a time
# ---------------------------------------------------------------------------


def randrange(rng, lo, hi):
    """Uniform integer in [lo, hi] inclusive, from one randint draw."""
    return lo + rng.randint(hi - lo + 1)


def _segment_plan(cfg, target, rng):
    """Oracle labels and rendering identities for one recording.

    Returns (oracle_labels, render_ids) where a render id is the index of
    the voiceprint to render with (known ids first, then unknown-pool
    ids), or NOISE for a non-speech segment.
    """
    n_seg = randrange(rng, *cfg.segments_per_recording)
    n_dis = randrange(rng, *cfg.distractors_per_recording)
    distractors = []
    for _ in range(n_dis):
        if cfg.unknown_speaker_count > 0 and rng.float() < 0.5:
            distractors.append(cfg.n_speakers + rng.randint(cfg.unknown_speaker_count))
        else:
            other = rng.randint(cfg.n_speakers - 1)
            distractors.append(other + 1 if other >= target else other)
    distractors = sorted(set(distractors))

    render_ids = []
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


def _initial_clusters(sids, target, oracle):
    """Segments sids grouped by oracle label: the target first, known distractors ascending, UNKNOWN, NOISE."""
    order = [target] + sorted({l for l in oracle if l >= 0 and l != target})
    order += [s for s in (UNKNOWN, NOISE) if s in oracle]
    return [m for lab in order if (m := [s for s, o in zip(sids, oracle) if o == lab])]


def _reference_plan(cfg):
    """The plan pass as a loop over recordings: (recordings, per-segment columns as lists).

    Each recording's stream makes the same draws, in the same order, as
    when its segments are rendered one by one; normals calls are only
    reserved (Rng.skip_normals).
    """
    recordings = []
    columns = {name: [] for name in ("oracle", "render_id", "n_frames", "key", "counter", "latent_counter")}
    for target in range(cfg.n_speakers):
        for r in range(cfg.recordings_per_speaker):
            rec_id = target * cfg.recordings_per_speaker + r
            rng = Rng.from_seed(cfg.seed, "rec", rec_id)
            oracle, rids = _segment_plan(cfg, target, rng)
            sids = list(range(len(columns["oracle"]), len(columns["oracle"]) + len(oracle)))
            for rid in rids:
                n = randrange(rng, *cfg.frames_per_segment)
                columns["latent_counter"].append(rng.skip_normals(cfg.latent_dim) if rid == NOISE else -1)
                columns["counter"].append(rng.skip_normals(n * cfg.latent_dim))
                columns["n_frames"].append(n)
            columns["render_id"] += rids
            columns["key"] += [rng.key] * len(rids)
            columns["oracle"] += oracle
            recordings.append(Recording(rec_id, target, _initial_clusters(sids, target, oracle)))
    return recordings, columns


def _table_lists(table):
    return [a.tolist() for a in (table.ids, table.targets, table.heldout, table.n_clusters, table.sizes, table.members)]


def _assert_plan_matches_reference(cfg):
    plan = weaksv.synth._plan_corpus(cfg)
    recordings, columns = _reference_plan(cfg)
    for name, want in columns.items():
        got = getattr(plan, name)
        assert got.dtype == (np.uint64 if name == "key" else np.int64), name
        assert got.tolist() == want, name
    assert _table_lists(plan.table) == _table_lists(corpus_of(cfg.n_speakers, recordings, None).table)


PLAN_EDGES = {
    "no_unknowns": SynthConfig(n_speakers=4, recordings_per_speaker=3, unknown_speaker_count=0, seed=41),
    "no_distractors": SynthConfig(n_speakers=4, recordings_per_speaker=3, distractors_per_recording=(0, 0), seed=42),
    "no_noise": SynthConfig(n_speakers=4, recordings_per_speaker=3, noise_segment_prob=0.0, seed=43),
    "all_noise": SynthConfig(n_speakers=4, recordings_per_speaker=3, noise_segment_prob=1.0, seed=44),
    "never_target": SynthConfig(n_speakers=4, recordings_per_speaker=3, target_weight=0.0,
                                distractors_per_recording=(1, 3), seed=45),
    "always_target": SynthConfig(n_speakers=4, recordings_per_speaker=3, target_weight=1.0, seed=46),
    "one_segment": SynthConfig(n_speakers=4, recordings_per_speaker=3, segments_per_recording=(1, 1), seed=47),
}


class TestPlanParity:
    @pytest.mark.parametrize("name", PLAN_EDGES)
    def test_edge_configs_match_reference(self, name):
        _assert_plan_matches_reference(PLAN_EDGES[name])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(2, 5), st.integers(1, 4), st.integers(0, 5),
           st.integers(0, 3), st.integers(0, 3), st.integers(0, 4),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.integers(0, 2**63 - 1))
    def test_matches_reference(self, n_speakers, per_speaker, latent_dim, seg_lo, seg_extra, dis_lo, dis_extra,
                               unknown, noise, target_weight, seed):
        _assert_plan_matches_reference(SynthConfig(
            n_speakers=n_speakers, recordings_per_speaker=per_speaker, latent_dim=latent_dim,
            segments_per_recording=(seg_lo, seg_lo + seg_extra), frames_per_segment=(1, 6),
            distractors_per_recording=(dis_lo, dis_lo + dis_extra), noise_segment_prob=noise,
            unknown_speaker_count=unknown, target_weight=target_weight, seed=seed))


# ---------------------------------------------------------------------------
# Block rendering against the per-segment loop it replaced
# ---------------------------------------------------------------------------


def _reference_render_segment(voice, n_frames, cfg, rng, lift, dtype):
    noise = rng.normals(n_frames * cfg.latent_dim).reshape(n_frames, cfg.latent_dim)
    latents = voice[None, :] + cfg.within_speaker_noise * noise
    return lift.apply(latents).astype(dtype)


def _reference_corpus(cfg, dtype=np.float32):
    """(corpus, frame matrix): each segment rendered on its own, drawing from its recording's stream in turn."""
    voices = generate_speakers(cfg.n_speakers + cfg.unknown_speaker_count, cfg.latent_dim, cfg.seed)
    lift = make_lift(cfg)
    recordings, features, oracles = [], [], []
    for target in range(cfg.n_speakers):
        for r in range(cfg.recordings_per_speaker):
            rec_id = target * cfg.recordings_per_speaker + r
            rng = Rng.from_seed(cfg.seed, "rec", rec_id)
            oracle, render_ids = _segment_plan(cfg, target, rng)
            sids = list(range(len(oracles), len(oracles) + len(render_ids)))
            for rid in render_ids:
                n_frames = randrange(rng, *cfg.frames_per_segment)
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
            recordings.append(Recording(rec_id, target, _initial_clusters(sids, target, oracle)))
    return corpus_of(cfg.n_speakers, recordings, make_segments(features, oracles)), np.concatenate(features)


def _assert_same_corpus(got, want):
    """got and want are (corpus, frame matrix) pairs."""
    (got, got_frames), (want, want_frames) = got, want
    g, w = got.segments, want.segments
    assert g.n_frames.tolist() == w.n_frames.tolist()
    assert g.oracle.tolist() == w.oracle.tolist()
    assert got_frames.dtype == want_frames.dtype and got_frames.shape == want_frames.shape
    bounds = frame_bounds(w)
    for sid in range(len(w)):
        rows = slice(bounds[sid], bounds[sid + 1])
        assert got_frames[rows].tobytes() == want_frames[rows].tobytes(), sid
    assert g.means.tobytes() == w.means.tobytes()  # bitwise each segment's frames averaged on their own
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
        _assert_same_corpus(generate_with_frames(cfg), _reference_corpus(cfg))

    def test_default_corpus_spans_many_blocks(self):
        corpus = generate_corpus(SynthConfig())
        total = corpus.segments.n_frames.sum()
        assert total > 5 * weaksv.synth.RENDER_BLOCK

    # 1: every segment is longer than a block; 37: blocks end mid-recording
    @pytest.mark.parametrize("block", [1, 37, 10**9])
    def test_block_size_does_not_change_the_corpus(self, monkeypatch, block):
        cfg = SynthConfig(**_SMALL, frames_per_segment=(1, 40), seed=38)
        want = _reference_corpus(cfg)
        monkeypatch.setattr(weaksv.synth, "RENDER_BLOCK", block)
        _assert_same_corpus(generate_with_frames(cfg), want)

    @pytest.mark.parametrize("name", ["one_frame", "short_segments", "latent3_odd_frames"])
    def test_float64_rows_match_per_segment_lift(self, name):
        # rendered into a float64 matrix, no float32 rounding can hide a
        # last-bit difference of the lift (e.g. BLAS gemv against gemm)
        cfg = PARITY_CONFIGS[name]
        plan = weaksv.synth._plan_corpus(cfg)
        voices = generate_speakers(cfg.n_speakers + cfg.unknown_speaker_count, cfg.latent_dim, cfg.seed)
        blocks = list(weaksv.synth._render(plan, voices, cfg, make_lift(cfg)))
        assert [a for a, _, _ in blocks] == [0] + [b for _, b, _ in blocks[:-1]]
        assert blocks[-1][1] == plan.n_frames.size
        _, want = _reference_corpus(cfg, dtype=np.float64)
        assert np.array_equal(np.concatenate([rows for _, _, rows in blocks]), want)

    def test_segments_are_consecutive_rows_of_one_frame_matrix(self):
        feat = io.BytesIO()
        corpus = generate_corpus(PARITY_CONFIGS["latent3_odd_frames"], feat)
        raw, n_frames = feat.getvalue(), corpus.segments.n_frames
        frames = feat_frames(raw)
        assert feat_bytes(frames) == raw  # the header, then float32 little-endian rows
        assert frames.shape == (n_frames.sum(), corpus.feat_dim)
        assert n_frames.dtype == np.int64 and n_frames.shape == (len(corpus.segments),)
        assert np.all(n_frames >= 1)
        bounds = frame_bounds(corpus.segments)
        means = corpus.mean_frames()
        assert means.dtype == np.float64 and means.shape == (len(corpus.segments), corpus.feat_dim)
        assert not means.flags.writeable
        assert means.tobytes() == segment_means(np.split(frames, bounds[1:-1])).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.integers(2, 30), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_stored_means_are_the_frames_means(tmp_path_factory, block, max_frames, n_speakers, seed):
    """corpus.idx stores, bit for bit, the means of the frames gen writes to corpus.feat."""
    cfg = SynthConfig(n_speakers=n_speakers, recordings_per_speaker=3, frames_per_segment=(1, max_frames),
                      unknown_speaker_count=2, seed=seed)
    feat = io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weaksv.synth, "RENDER_BLOCK", block)
        corpus = generate_corpus(cfg, feat)
    frames, bounds = feat_frames(feat.getvalue()), frame_bounds(corpus.segments)
    # one-frame segments, and segments whose rows straddle a multiple of RENDER_BLOCK
    assume((corpus.segments.n_frames == 1).any() and (bounds[:-1] // block != (bounds[1:] - 1) // block).any())
    path = tmp_path_factory.mktemp("stored")
    save_manifest(corpus, path)
    raw = (path / "corpus.idx").read_bytes()
    stored = raw[len(raw) - 8 * frames.shape[1] * len(corpus.segments):]  # the means close the file
    assert stored == segment_means(np.split(frames, bounds[1:-1])).astype("<f8").tobytes()
