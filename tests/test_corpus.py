import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weaksv.corpus
from weaksv.corpus import (
    FEAT_MAGIC,
    FEAT_VERSION,
    NOISE,
    POOL_BLOCK,
    UNKNOWN,
    Corpus,
    Recording,
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

from conftest import constant_segments, make_segments, segment_features


def test_wellformed_corpus_validates(tiny_corpus):
    assert validate_corpus(tiny_corpus) == []


def test_missing_target_speech_detected(tiny_corpus):
    # recording 1's only speech segment switched to the wrong speaker
    tiny_corpus.segments.oracle[3] = 1
    issues = validate_corpus(tiny_corpus)
    assert any(i.kind == "MissingTargetSpeech" for i in issues)


def test_dangling_reference_detected(tiny_corpus):
    tiny_corpus.recordings[0].clusters[0].append(999)
    issues = validate_corpus(tiny_corpus)
    assert any(i.kind == "MissingSegment" for i in issues)


def test_empty_cluster_detected(tiny_corpus):
    tiny_corpus.recordings[0].clusters.append([])
    issues = validate_corpus(tiny_corpus)
    assert any(i.kind == "EmptyCluster" for i in issues)


def test_duplicate_membership_detected(tiny_corpus):
    tiny_corpus.recordings[0].clusters[1].append(0)
    issues = validate_corpus(tiny_corpus)
    assert any(i.kind == "DuplicateSegment" for i in issues)


def test_untargeted_speaker_detected(tiny_corpus):
    tiny_corpus.n_speakers = 3
    issues = validate_corpus(tiny_corpus)
    assert any(i.kind == "UntargetedSpeaker" for i in issues)


def test_synthetic_corpora_validate():
    for seed in (1, 2):
        corpus = generate_corpus(SynthConfig(n_speakers=6, recordings_per_speaker=4, seed=seed))
        assert validate_corpus(corpus) == []


class TestNonFiniteFeatures:
    def test_separate_arrays(self, tiny_corpus):
        # the table was joined from one array per segment
        segment_features(tiny_corpus.segments, 5)[1, 2] = np.nan
        segment_features(tiny_corpus.segments, 2)[0, 0] = -np.inf
        issues = validate_corpus(tiny_corpus)
        assert [(i.kind, i.message) for i in issues] == [
            ("NonFiniteFeatures", "segment 2 contains NaN or inf"),
            ("NonFiniteFeatures", "segment 5 contains NaN or inf")]

    def test_shared_frame_matrix(self):
        corpus = generate_corpus(SynthConfig(n_speakers=4, recordings_per_speaker=2, seed=8))
        assert validate_corpus(corpus) == []
        segment_features(corpus.segments, 3)[-1, 0] = np.nan
        segment_features(corpus.segments, 11)[0, -1] = np.inf
        issues = validate_corpus(corpus)
        assert [i.message for i in issues] == [
            "segment 3 contains NaN or inf", "segment 11 contains NaN or inf"]

    def test_load_manifest_rejects_nan(self, tmp_path, small_corpus):
        save_manifest(small_corpus, tmp_path)
        feat = tmp_path / "corpus.feat"
        raw = bytearray(feat.read_bytes())
        raw[16 + 4 * 45:16 + 4 * 46] = struct.pack("<f", float("nan"))
        feat.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifact, match="segment 0 contains NaN or inf"):
            load_manifest(tmp_path)


def _reference_feat_bytes(corpus):
    """corpus.feat as a bytearray grown segment by segment."""
    blob = bytearray(FEAT_MAGIC)
    blob += struct.pack("<III", FEAT_VERSION, corpus.feat_dim, 0)
    for sid in range(len(corpus.segments)):
        blob += np.ascontiguousarray(segment_features(corpus.segments, sid), dtype="<f4").tobytes()
    return bytes(blob)


def test_save_manifest_feature_bytes(tmp_path, small_corpus, tiny_corpus):
    save_manifest(small_corpus, tmp_path / "generated")
    loaded = load_manifest(tmp_path / "generated")  # a read-only view of the file
    save_manifest(loaded, tmp_path / "loaded")
    # a float64, column-major frame matrix is converted as it is written
    frames = tiny_corpus.segments.frames
    frames[12:15] = np.arange(12, dtype=np.float32).reshape(3, 4)
    tiny_corpus.segments.frames = np.asfortranarray(frames.astype(np.float64))
    save_manifest(tiny_corpus, tmp_path / "mixed")
    for name, corpus in (("generated", small_corpus), ("loaded", loaded), ("mixed", tiny_corpus)):
        assert (tmp_path / name / "corpus.feat").read_bytes() == _reference_feat_bytes(corpus), name
    assert (tmp_path / "generated" / "corpus.idx").read_bytes() == (
        tmp_path / "loaded" / "corpus.idx").read_bytes()


def test_manifest_round_trip(tmp_path, small_corpus):
    save_manifest(small_corpus, tmp_path)
    loaded = load_manifest(tmp_path)
    assert loaded.n_speakers == small_corpus.n_speakers
    assert (loaded.segments.oracle == UNKNOWN).any() == (small_corpus.segments.oracle == UNKNOWN).any()
    assert len(loaded.recordings) == len(small_corpus.recordings)
    for a, b in zip(loaded.recordings, small_corpus.recordings):
        assert (a.recording_id, a.target, a.heldout) == (b.recording_id, b.target, b.heldout)
        assert a.clusters == b.clusters
    got, want = loaded.segments, small_corpus.segments
    assert got.frames.dtype == np.float32
    assert np.array_equal(got.frames, want.frames)  # bit-exact
    assert np.array_equal(got.bounds, want.bounds)
    assert np.array_equal(got.oracle, want.oracle)


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
    assert np.array_equal(loaded.segments.frames, corpus.segments.frames)
    assert np.array_equal(loaded.segments.bounds, corpus.segments.bounds)
    assert [r.clusters for r in loaded.recordings] == [r.clusters for r in corpus.recordings]


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
        recording_of = {s: r.recording_id for r in corpus.recordings for s in r.segment_ids()}
        oracle = corpus.segments.oracle
        for t in trials:
            assert t.enroll_id != t.test_id
            assert recording_of[t.enroll_id] != recording_of[t.test_id]
            assert t.enroll_id in heldout_ids and t.test_id in heldout_ids
            same = oracle[t.enroll_id] == oracle[t.test_id]
            assert same == t.is_target

    def test_insufficient_segments(self):
        # one speaker only: non-target pairs are impossible
        recordings = [Recording(r, 0, [[2 * r, 2 * r + 1]], heldout=r >= 2) for r in range(4)]
        corpus = Corpus(1, recordings, constant_segments([0] * 8))
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


def _per_segment_means(segments):
    """Reference: each segment's frames averaged on their own."""
    return np.stack([segment_features(segments, sid).astype(np.float64).mean(axis=0)
                     for sid in range(len(segments))])


def test_mean_frames_matches_direct_average(tiny_corpus):
    assert np.array_equal(tiny_corpus.mean_frames(), _per_segment_means(tiny_corpus.segments))


def _ragged_corpus(n_segments, seed=0, feat_dim=5, empty=None):
    """Segments of 1..40 frames (a third with one frame); segment `empty` has none."""
    rng = np.random.default_rng(seed)
    features = []
    for sid in range(n_segments):
        n = 0 if sid == empty else 1 if rng.random() < 0.33 else int(rng.integers(2, 41))
        features.append((rng.standard_normal((n, feat_dim)) * rng.uniform(0.01, 50)).astype(np.float32))
    return Corpus(1, [Recording(0, 0, [list(range(n_segments))])], make_segments(features, [0] * n_segments))


class TestMeanFrames:
    def test_bitwise_equal_to_per_segment_mean(self):
        corpus = _ragged_corpus(2 * POOL_BLOCK + 37)
        mat = corpus.mean_frames()
        assert mat.shape == (len(corpus.segments), 5)
        assert np.array_equal(mat, _per_segment_means(corpus.segments))

    def test_second_call_returns_same_read_only_result(self):
        corpus = _ragged_corpus(10)
        mat = corpus.mean_frames()
        assert corpus.mean_frames() is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_zero_frame_segment_raises(self):
        victim = POOL_BLOCK + 2
        corpus = _ragged_corpus(POOL_BLOCK + 5, empty=victim)
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


def _untarget_speaker_1(corpus):
    """Renumber speaker 1 to 2, so no recording targets speaker 1 of the loaded corpus."""
    corpus.segments.oracle[corpus.segments.oracle == 1] = 2
    for rec in corpus.recordings[2:]:
        rec.target = 2


# issue kind -> edit of tiny_corpus that breaks only that invariant (first)
BROKEN_CONTRACTS = {
    # segment 4's rows go to segment 5, so the segments still tile the matrix
    "EmptySegment": lambda c: c.segments.bounds.__setitem__(5, c.segments.bounds[4]),
    "NonFiniteFeatures": lambda c: c.segments.frames.__setitem__((13, 1), np.inf),
    "BadTarget": lambda c: setattr(c.recordings[1], "target", -1),
    "EmptyRecording": lambda c: setattr(c.recordings[1], "clusters", []),
    "EmptyCluster": lambda c: c.recordings[0].clusters.append([]),
    "MissingSegment": lambda c: c.recordings[0].clusters[0].append(99),
    "DuplicateSegment": lambda c: c.recordings[0].clusters[1].append(0),
    "MissingTargetSpeech": lambda c: setattr(c.recordings[1], "target", 1),
    "UntargetedSpeaker": _untarget_speaker_1,
}


@pytest.mark.parametrize("kind", BROKEN_CONTRACTS)
def test_load_manifest_runs_validate_corpus(tmp_path, tiny_corpus, kind):
    save_manifest(tiny_corpus, tmp_path)
    assert validate_corpus(load_manifest(tmp_path)) == []
    BROKEN_CONTRACTS[kind](tiny_corpus)
    save_manifest(tiny_corpus, tmp_path)
    with pytest.raises(CorruptArtifact, match=f": {kind}: "):
        load_manifest(tmp_path)


# ---------------------------------------------------------------------------
# Property tests over random segment tables
# ---------------------------------------------------------------------------


@st.composite
def segment_tables(draw):
    """A contract-valid corpus over a random segment table: 1..12 segments, or more than POOL_BLOCK.

    Frame counts are 1..6 and oracle labels known, UNKNOWN or NOISE. A
    random subset of the segments is split into recordings of one or two
    clusters; the rest belong to no cluster, as noise that diarization
    dropped does. Targets are dense (each of the 1..3 speakers targets a
    recording) and every recording's first member voices its target.
    """
    n = draw(st.one_of(st.integers(1, 12), st.integers(POOL_BLOCK + 1, POOL_BLOCK + 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = rng.uniform(0.01, 50)
    features = [(rng.standard_normal((k, 3)) * scale).astype(np.float32)
                for k in rng.integers(1, 7, size=n)]
    members = rng.permutation(n)[:rng.integers(1, n + 1)].tolist()
    groups = []
    while members:
        k = int(rng.integers(1, 6))
        groups.append(members[:k])
        members = members[k:]
    n_speakers = int(rng.integers(1, min(3, len(groups)) + 1))
    targets = rng.integers(n_speakers, size=len(groups))
    targets[:n_speakers] = rng.permutation(n_speakers)
    oracle = rng.integers(NOISE, n_speakers, size=n)
    recordings = []
    for take, target in zip(groups, targets.tolist()):
        oracle[take[0]] = target
        clusters = [take[0::2], take[1::2]] if len(take) > 1 else [take]
        recordings.append(Recording(len(recordings), target, clusters, heldout=bool(rng.integers(2))))
    return Corpus(n_speakers, recordings, make_segments(features, oracle))


@settings(max_examples=25, deadline=None)
@given(segment_tables())
def test_segment_table_manifest_round_trip(tmp_path_factory, corpus):
    first, second = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")
    save_manifest(corpus, first)
    loaded = load_manifest(first)
    assert loaded.segments.frames.tobytes() == corpus.segments.frames.tobytes()
    assert loaded.segments.bounds.tolist() == corpus.segments.bounds.tolist()
    assert loaded.segments.oracle.tolist() == corpus.segments.oracle.tolist()
    assert [(r.recording_id, r.target, r.clusters, r.heldout) for r in loaded.recordings] == [
        (r.recording_id, r.target, r.clusters, r.heldout) for r in corpus.recordings]
    assert loaded.n_speakers == corpus.n_speakers
    save_manifest(loaded, second)
    for name in ("corpus.idx", "corpus.feat"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@settings(max_examples=25, deadline=None)
@given(segment_tables())
def test_segment_table_mean_frames_is_per_segment_mean(corpus):
    assert np.array_equal(corpus.mean_frames(), _per_segment_means(corpus.segments))


@settings(max_examples=25, deadline=None)
@given(segment_tables(), st.data())
def test_validate_names_exactly_the_segments_with_non_finite_frames(corpus, data):
    segments = corpus.segments
    rows = data.draw(st.sets(st.integers(0, segments.frames.shape[0] - 1), max_size=6))
    for row in rows:
        segments.frames[row, row % 3] = [np.nan, np.inf, -np.inf][row % 3]
    owner = np.repeat(np.arange(len(segments)), np.diff(segments.bounds))  # frame row -> segment
    want = sorted({int(owner[row]) for row in rows})
    issues = [i.message for i in validate_corpus(corpus) if i.kind == "NonFiniteFeatures"]
    assert issues == [f"segment {sid} contains NaN or inf" for sid in want]


def _reference_issues(corpus):
    """validate_corpus as plain loops over segments, recordings and members (the reference)."""
    segments, recordings, n_speakers = corpus.segments, corpus.recordings, corpus.n_speakers
    n = len(segments)
    issues = [("EmptySegment", f"segment {sid} has no frames")
              for sid in range(n) if segments.bounds[sid + 1] <= segments.bounds[sid]]
    issues += [("NonFiniteFeatures", f"segment {sid} contains NaN or inf")
               for sid in range(n) if not np.isfinite(segment_features(segments, sid)).all()]
    issues += [("BadTarget", f"recording {r.recording_id} target {r.target} outside 0..{n_speakers - 1}")
               for r in recordings if not 0 <= r.target < n_speakers]
    issues += [("EmptyRecording", f"recording {r.recording_id} has no clusters")
               for r in recordings if not r.clusters]
    issues += [("EmptyCluster", f"recording {r.recording_id} cluster {cid} is empty")
               for r in recordings for cid, cluster in enumerate(r.clusters) if not cluster]
    issues += [("MissingSegment", f"recording {r.recording_id} references missing segment {sid}")
               for r in recordings for sid in r.segment_ids() if not 0 <= sid < n]
    uses = [0] * n
    for r in recordings:
        for sid in r.segment_ids():
            if 0 <= sid < n:
                uses[sid] += 1
    issues += [("DuplicateSegment", f"segment {sid} appears in more than one cluster")
               for sid in range(n) if uses[sid] > 1]
    issues += [("MissingTargetSpeech", f"recording {r.recording_id} has no segment of its target {r.target}")
               for r in recordings
               if not any(0 <= sid < n and segments.oracle[sid] == r.target for sid in r.segment_ids())]
    untargeted = [spk for spk in range(n_speakers) if all(r.target != spk for r in recordings)]
    if untargeted:
        issues.append(("UntargetedSpeaker", f"{len(untargeted)} speaker(s), the first {untargeted[0]}, "
                                            "are the target of no recording"))
    return issues


def _break_contract(corpus, rng):
    """One to three random breaks of the corpus contract, each of a random kind."""
    segments, recordings = corpus.segments, corpus.recordings
    for _ in range(int(rng.integers(1, 4))):
        rec = recordings[int(rng.integers(len(recordings)))]
        damage = int(rng.integers(7))
        if damage == 0:
            rec.target = int(rng.integers(-2, corpus.n_speakers + 2))
        elif damage == 1:
            rec.clusters = []
        elif damage == 2:
            rec.clusters.insert(int(rng.integers(len(rec.clusters) + 1)), [])
        elif damage == 3 and rec.clusters:  # a stray, a shared or a repeated member
            rec.clusters[int(rng.integers(len(rec.clusters)))].append(int(rng.integers(-2, len(segments) + 2)))
        elif damage == 4:
            corpus.n_speakers += int(rng.integers(1, 3))
        elif damage == 5:
            segments.frames[int(rng.integers(segments.frames.shape[0])), 0] = np.nan
        elif damage == 6 and len(segments) > 1:  # segment sid's rows go to segment sid - 1
            sid = int(rng.integers(1, len(segments)))
            segments.bounds[sid] = segments.bounds[sid + 1]


@settings(max_examples=50, deadline=None)
@given(segment_tables(), st.integers(0, 2**32 - 1), st.booleans())
def test_validate_matches_loop_reference(corpus, seed, broken):
    assert validate_corpus(corpus) == []
    if broken:
        _break_contract(corpus, np.random.default_rng(seed))
        # a corpus caches its cluster table, so the edited recordings go into a new one
        corpus = Corpus(corpus.n_speakers, corpus.recordings, corpus.segments)
    assert [(i.kind, i.message) for i in validate_corpus(corpus)] == _reference_issues(corpus)
