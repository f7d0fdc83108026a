import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weaksv.corpus
from weaksv.corpus import (
    FEAT_MAGIC,
    FEAT_VERSION,
    POOL_BLOCK,
    Corpus,
    Recording,
    Segment,
    assign_heldout_split,
    load_manifest,
    load_trials,
    save_manifest,
    save_trials,
    split_trials,
    validate_corpus,
)
from weaksv.errors import CorruptArtifact, EmptyInput, InsufficientSegments
from weaksv.synth import SynthConfig, generate_corpus

from conftest import make_segment


def test_wellformed_corpus_validates(tiny_corpus):
    assert validate_corpus(tiny_corpus).ok


def test_missing_target_speech_detected(tiny_corpus):
    # recording 1's only speech segment switched to the wrong speaker
    tiny_corpus.segments[3].oracle_speaker = 1
    report = validate_corpus(tiny_corpus)
    assert any(i.kind == "MissingTargetSpeech" for i in report.issues)


def test_dangling_reference_detected(tiny_corpus):
    tiny_corpus.recordings[0].clusters[0].append(999)
    report = validate_corpus(tiny_corpus)
    assert any(i.kind == "UnresolvedReference" for i in report.issues)


def test_empty_cluster_detected(tiny_corpus):
    tiny_corpus.recordings[0].clusters.append([])
    report = validate_corpus(tiny_corpus)
    assert any(i.kind == "EmptyCluster" for i in report.issues)


def test_duplicate_membership_detected(tiny_corpus):
    tiny_corpus.recordings[0].clusters[1].append(0)
    report = validate_corpus(tiny_corpus)
    assert any(i.kind == "DuplicateSegment" for i in report.issues)


def test_untargeted_speaker_detected(tiny_corpus):
    tiny_corpus.n_speakers = 3
    report = validate_corpus(tiny_corpus)
    assert any(i.kind == "UntargetedSpeaker" for i in report.issues)


def test_synthetic_corpora_validate():
    for seed in (1, 2):
        corpus = generate_corpus(SynthConfig(n_speakers=6, recordings_per_speaker=4, seed=seed))
        assert validate_corpus(corpus).ok


class TestNonFiniteFeatures:
    def test_separate_arrays(self, tiny_corpus):
        tiny_corpus.segments[5].features[1, 2] = np.nan
        tiny_corpus.segments[2].features[0, 0] = -np.inf
        report = validate_corpus(tiny_corpus)
        assert [(i.kind, i.message) for i in report.issues] == [
            ("NonFiniteFeatures", "segment 2 contains NaN or inf"),
            ("NonFiniteFeatures", "segment 5 contains NaN or inf")]

    def test_shared_frame_matrix(self):
        corpus = generate_corpus(SynthConfig(n_speakers=4, recordings_per_speaker=2, seed=8))
        assert validate_corpus(corpus).ok
        corpus.segments[3].features[-1, 0] = np.nan
        corpus.segments[11].features[0, -1] = np.inf
        report = validate_corpus(corpus)
        assert [i.message for i in report.issues] == [
            "segment 3 contains NaN or inf", "segment 11 contains NaN or inf"]

    def test_rows_outside_every_segment_are_not_reported(self, tiny_corpus):
        store = np.full((40, 4), np.nan, dtype=np.float32)
        for sid, seg in tiny_corpus.segments.items():
            store[3 * sid:3 * sid + 3] = seg.features
            seg.features = store[3 * sid:3 * sid + 3]
        assert validate_corpus(tiny_corpus).ok

    def test_view_of_a_buffer_of_another_dtype(self, tiny_corpus):
        bits = np.zeros(12, dtype=np.uint32)
        bits[5] = 0x7FC00000  # a float32 NaN; as an integer it is finite
        tiny_corpus.segments[7].features = bits.view(np.float32).reshape(3, 4)
        assert [i.message for i in validate_corpus(tiny_corpus).issues] == [
            "segment 7 contains NaN or inf"]

    def test_load_manifest_rejects_nan(self, tmp_path, small_corpus):
        save_manifest(small_corpus, tmp_path)
        feat = tmp_path / "corpus.feat"
        raw = bytearray(feat.read_bytes())
        raw[16 + 4 * 45:16 + 4 * 46] = struct.pack("<f", float("nan"))
        feat.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifact, match="row 2 holds NaN or inf"):
            load_manifest(tmp_path)


def _reference_feat_bytes(corpus):
    """corpus.feat as a bytearray grown segment by segment."""
    blob = bytearray(FEAT_MAGIC)
    blob += struct.pack("<III", FEAT_VERSION, corpus.feat_dim, 0)
    for sid in sorted(corpus.segments):
        blob += np.ascontiguousarray(corpus.segments[sid].features, dtype="<f4").tobytes()
    return bytes(blob)


def test_save_manifest_feature_bytes(tmp_path, small_corpus, tiny_corpus):
    save_manifest(small_corpus, tmp_path / "generated")
    loaded = load_manifest(tmp_path / "generated")  # one array per segment
    save_manifest(loaded, tmp_path / "loaded")
    # float64 and column-major features are converted as they are written
    tiny_corpus.segments[0].features = tiny_corpus.segments[0].features.astype(np.float64)
    tiny_corpus.segments[4].features = np.asfortranarray(np.arange(12, dtype=np.float32).reshape(3, 4))
    save_manifest(tiny_corpus, tmp_path / "mixed")
    for name, corpus in (("generated", small_corpus), ("loaded", loaded), ("mixed", tiny_corpus)):
        assert (tmp_path / name / "corpus.feat").read_bytes() == _reference_feat_bytes(corpus), name
    assert (tmp_path / "generated" / "corpus.idx").read_bytes() == (
        tmp_path / "loaded" / "corpus.idx").read_bytes()


def test_manifest_round_trip(tmp_path, small_corpus):
    save_manifest(small_corpus, tmp_path)
    loaded = load_manifest(tmp_path)
    assert loaded.n_speakers == small_corpus.n_speakers
    assert loaded.unknown_pool_present == small_corpus.unknown_pool_present
    assert len(loaded.recordings) == len(small_corpus.recordings)
    for a, b in zip(loaded.recordings, small_corpus.recordings):
        assert (a.recording_id, a.target, a.heldout) == (b.recording_id, b.target, b.heldout)
        assert a.clusters == b.clusters
    assert set(loaded.segments) == set(small_corpus.segments)
    for sid, seg in small_corpus.segments.items():
        got = loaded.segments[sid]
        assert got.recording_id == seg.recording_id
        assert got.cluster_id == seg.cluster_id
        assert got.oracle_speaker == seg.oracle_speaker
        assert got.features.dtype == np.float32
        assert np.array_equal(got.features, seg.features)  # bit-exact


def test_manifest_round_trip_preserves_heldout(tmp_path, small_corpus):
    marked = assign_heldout_split(small_corpus, 0.2, seed=3)
    save_manifest(marked, tmp_path)
    loaded = load_manifest(tmp_path)
    assert {r.recording_id for r in loaded.heldout_recordings()} == {
        r.recording_id for r in marked.heldout_recordings()
    }


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_manifest_round_trip_property(tmp_path_factory, seed):
    corpus = generate_corpus(
        SynthConfig(n_speakers=3, recordings_per_speaker=2, segments_per_recording=(2, 4),
                    frames_per_segment=(1, 5), unknown_speaker_count=1, seed=seed))
    path = tmp_path_factory.mktemp("rt")
    save_manifest(corpus, path)
    loaded = load_manifest(path)
    for sid, seg in corpus.segments.items():
        assert np.array_equal(loaded.segments[sid].features, seg.features)
        assert loaded.segments[sid].recording_id == seg.recording_id


def test_heldout_split_is_deterministic_and_per_speaker(small_corpus):
    a = assign_heldout_split(small_corpus, 0.2, seed=9)
    b = assign_heldout_split(small_corpus, 0.2, seed=9)
    assert [r.heldout for r in a.recordings] == [r.heldout for r in b.recordings]
    for spk in range(a.n_speakers):
        mine = [r for r in a.recordings if r.target == spk]
        held = sum(r.heldout for r in mine)
        assert held == max(1, round(0.2 * len(mine)))
        assert held < len(mine)


class TestSplitTrials:
    def _held(self, corpus):
        return assign_heldout_split(corpus, 0.4, seed=4)

    def test_counts_and_determinism(self, small_corpus):
        corpus = self._held(small_corpus)
        trials = split_trials(corpus, 50, 50, seed=7)
        assert len(trials) == 100
        assert sum(t.is_target for t in trials) == 50
        again = split_trials(corpus, 50, 50, seed=7)
        assert trials == again

    def test_cross_recording_and_disjoint_from_training(self, small_corpus):
        corpus = self._held(small_corpus)
        trials = split_trials(corpus, 40, 40, seed=1)
        heldout_ids = {s for r in corpus.heldout_recordings() for s in r.segment_ids()}
        for t in trials:
            ea, eb = corpus.segments[t.enroll_id], corpus.segments[t.test_id]
            assert t.enroll_id != t.test_id
            assert ea.recording_id != eb.recording_id
            assert t.enroll_id in heldout_ids and t.test_id in heldout_ids
            same = ea.oracle_speaker == eb.oracle_speaker
            assert same == t.is_target

    def test_insufficient_segments(self):
        # one speaker only: non-target pairs are impossible
        segments = {i: make_segment(i, i // 2, 0, 0) for i in range(8)}
        recordings = [Recording(r, 0, [[2 * r, 2 * r + 1]], heldout=r >= 2) for r in range(4)]
        from weaksv.corpus import Corpus

        corpus = Corpus(1, recordings, segments)
        with pytest.raises(InsufficientSegments):
            split_trials(corpus, 5, 10, seed=3)

    def test_no_heldout_material(self, small_corpus):
        with pytest.raises(InsufficientSegments):
            split_trials(small_corpus, 10, 10, seed=0)


def test_trials_tsv_round_trip(tmp_path, small_corpus):
    corpus = assign_heldout_split(small_corpus, 0.25, seed=4)
    trials = split_trials(corpus, 20, 20, seed=5)
    save_trials(trials, tmp_path / "trials.tsv")
    assert load_trials(tmp_path / "trials.tsv") == trials


def test_mean_frames_matches_direct_average(tiny_corpus):
    mat, row_of = tiny_corpus.mean_frames()
    for sid, seg in tiny_corpus.segments.items():
        expected = seg.features.astype(np.float64).mean(axis=0)
        assert np.array_equal(mat[row_of[sid]], expected)


def _ragged_corpus(n_segments, seed=0, feat_dim=5):
    """Segments of 1..40 frames (a third with one frame), ids sparse and unsorted."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(np.arange(n_segments) * 3 + 7).tolist()
    segments = {}
    for sid in ids:
        n = 1 if rng.random() < 0.33 else int(rng.integers(2, 41))
        feats = (rng.standard_normal((n, feat_dim)) * rng.uniform(0.01, 50)).astype(np.float32)
        segments[sid] = Segment(sid, 0, 0, feats, 0)
    return Corpus(1, [Recording(0, 0, [ids])], segments)


class TestMeanFrames:
    def test_bitwise_equal_to_per_segment_mean(self):
        corpus = _ragged_corpus(2 * POOL_BLOCK + 37)
        mat, row_of = corpus.mean_frames()
        assert list(row_of) == sorted(corpus.segments)
        reference = np.stack([corpus.segments[sid].features.astype(np.float64).mean(axis=0)
                              for sid in row_of])
        assert np.array_equal(mat, reference)
        assert [row_of[sid] for sid in sorted(corpus.segments)] == list(range(len(row_of)))

    def test_second_call_returns_same_read_only_result(self):
        corpus = _ragged_corpus(10)
        mat, row_of = corpus.mean_frames()
        again = corpus.mean_frames()
        assert again[0] is mat and again[1] is row_of
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        with pytest.raises(TypeError):
            row_of[0] = 0

    def test_zero_frame_segment_raises(self):
        corpus = _ragged_corpus(POOL_BLOCK + 5)
        victim = sorted(corpus.segments)[POOL_BLOCK + 2]
        corpus.segments[victim] = Segment(victim, 0, 0, np.zeros((0, 5), np.float32), 0)
        with pytest.raises(EmptyInput, match=f"segment {victim} "):
            corpus.mean_frames()

    def test_pooling_runs_once_per_corpus(self, monkeypatch):
        calls = []
        real = weaksv.corpus._pool_means
        monkeypatch.setattr(weaksv.corpus, "_pool_means", lambda *a: calls.append(1) or real(*a))
        corpus = _ragged_corpus(20)
        for _ in range(4):
            corpus.mean_frames()
        assert len(calls) == 1
        _ragged_corpus(20).mean_frames()
        assert len(calls) == 2


def _replace_first(kind, fields):
    def edit(text):
        lines = text.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(kind + " "))
        lines[i] = fields(lines[i].split())
        return "\n".join(lines) + "\n"
    return edit


@pytest.mark.parametrize("edit", [
    _replace_first("R", lambda f: " ".join([*f[:4], "dev"])),
    _replace_first("R", lambda f: " ".join(f + ["extra"])),
    _replace_first("C", lambda f: " ".join(["C", "-1", *f[2:]])),
    _replace_first("C", lambda f: " ".join(["C", "9", *f[2:]])),
    _replace_first("C", lambda f: " ".join(["C", *f[1:], "7.5"])),
    _replace_first("S", lambda f: " ".join([*f[:4], str(2**70)])),
    _replace_first("S", lambda f: " ".join([*f[:4], "-1"])),
    _replace_first("S", lambda f: " ".join([*f[:3], "-2", f[4]])),
], ids=["split", "extra_field", "negative_cluster", "cluster_past_declared", "float_segment",
        "offset_overflow", "negative_offset", "negative_frames"])
def test_load_manifest_rejects_malformed_index(tmp_path, tiny_corpus, edit):
    save_manifest(tiny_corpus, tmp_path)
    idx = tmp_path / "corpus.idx"
    idx.write_text(edit(idx.read_text()))
    with pytest.raises(CorruptArtifact):
        load_manifest(tmp_path)


def test_load_manifest_rejects_zero_feature_dim(tmp_path, tiny_corpus):
    save_manifest(tiny_corpus, tmp_path)
    feat = tmp_path / "corpus.feat"
    raw = bytearray(feat.read_bytes())
    raw[8:12] = bytes(4)
    feat.write_bytes(bytes(raw))
    with pytest.raises(CorruptArtifact):
        load_manifest(tmp_path)
