import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import weaksv.corpus
import weaksv.synth
from weaksv.corpus import (
    FEAT_MAGIC,
    FEAT_VERSION,
    NOISE,
    UNKNOWN,
    Recording,
    Segments,
    assign_heldout_split,
    load_manifest,
    load_trials,
    pool_frames,
    save_manifest,
    save_trials,
    split_trials,
    validate_corpus,
)
from weaksv.errors import CorruptArtifact, InsufficientSegments
from weaksv.fileio import atomic_write
from weaksv.synth import SynthConfig, generate_corpus

from conftest import (TINY_VALUES, constant_features, constant_segments, corpus_of, edit_index, frame_bounds,
                      generate_with_frames, heldout_recordings, make_segments, segment_means, tiny_recordings)


def test_wellformed_corpus_validates(tiny_corpus):
    assert validate_corpus(tiny_corpus) == []


def test_missing_target_speech_detected(tiny_corpus):
    # recording 1's only speech segment switched to the wrong speaker
    tiny_corpus.segments.oracle[3] = 1
    issues = validate_corpus(tiny_corpus)
    assert any(i.kind == "MissingTargetSpeech" for i in issues)


def test_bad_oracle_detected(tiny_corpus):
    # the noise segment 4 and the unknown segment 6 get labels past either end of NOISE..n_speakers-1
    tiny_corpus.segments.oracle[[4, 6]] = [2, -3]
    assert [(i.kind, i.message) for i in validate_corpus(tiny_corpus)] == [
        ("BadOracle", "segment 4 oracle label 2 outside -2..1"),
        ("BadOracle", "segment 6 oracle label -3 outside -2..1")]


def _tiny_with(tiny_corpus, edit):
    """tiny_corpus with its recordings edited by edit (a list of Recording objects)."""
    recordings = tiny_recordings()
    edit(recordings)
    return corpus_of(tiny_corpus.n_speakers, recordings, tiny_corpus.segments)


def test_dangling_reference_detected(tiny_corpus):
    issues = validate_corpus(_tiny_with(tiny_corpus, lambda recs: recs[0].clusters[0].append(999)))
    assert any(i.kind == "MissingSegment" for i in issues)


def test_empty_cluster_detected(tiny_corpus):
    issues = validate_corpus(_tiny_with(tiny_corpus, lambda recs: recs[0].clusters.append([])))
    assert any(i.kind == "EmptyCluster" for i in issues)


def test_duplicate_membership_detected(tiny_corpus):
    issues = validate_corpus(_tiny_with(tiny_corpus, lambda recs: recs[0].clusters[1].append(0)))
    assert any(i.kind == "DuplicateSegment" for i in issues)


def test_untargeted_speaker_detected(tiny_corpus):
    issues = validate_corpus(replace(tiny_corpus, n_speakers=3))
    assert any(i.kind == "UntargetedSpeaker" for i in issues)


def test_corpus_attributes_cannot_be_reassigned(tiny_corpus):
    for name, value in (("n_speakers", 3), ("table", None), ("segments", None), ("recordings", [])):
        with pytest.raises(AttributeError):
            setattr(tiny_corpus, name, value)


def test_synthetic_corpora_validate():
    for seed in (1, 2):
        corpus = generate_corpus(SynthConfig(n_speakers=6, recordings_per_speaker=4, seed=seed))
        assert validate_corpus(corpus) == []


def _load_issues(directory):
    """Every issue validate_corpus finds in the corpus load_manifest reads, which must reject it with the first."""
    seen = []
    real = weaksv.corpus.validate_corpus
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weaksv.corpus, "validate_corpus", lambda corpus: seen.extend(real(corpus)) or seen)
        with pytest.raises(CorruptArtifact) as info:
            load_manifest(directory)
    assert seen and str(info.value).endswith(f": {seen[0].kind}: {seen[0].message}"), (info.value, seen)
    return [(i.kind, i.message) for i in seen]


def _segment_rows(frames, segments, sid):
    """Segment sid's rows of the frame matrix frames (a view)."""
    bounds = frame_bounds(segments)
    return frames[bounds[sid]:bounds[sid + 1]]


def _pooled(corpus, frames):
    """corpus with the means of the frame matrix frames, pooled by pool_frames as gen pools them."""
    segments = corpus.segments
    means = np.empty((len(segments), frames.shape[1]))
    pool_frames(frames, segments.n_frames, means)
    return replace(corpus, segments=Segments(means, segments.n_frames, segments.oracle))


class TestNonFiniteFeatures:
    """A non-finite frame makes gen's pooled mean non-finite, and a load of the index names its segment."""

    def test_separate_arrays(self, tmp_path, tiny_corpus):
        # the table was joined from one array per segment
        features = constant_features(TINY_VALUES)
        features[5][1, 2] = np.nan
        features[2][0, 0] = -np.inf
        save_manifest(corpus_of(2, tiny_recordings(), make_segments(features, tiny_corpus.segments.oracle)), tmp_path)
        assert _load_issues(tmp_path) == [
            ("NonFiniteFeatures", "segment 2 contains NaN or inf"),
            ("NonFiniteFeatures", "segment 5 contains NaN or inf")]

    def test_shared_frame_matrix(self, tmp_path):
        corpus, frames = generate_with_frames(SynthConfig(n_speakers=4, recordings_per_speaker=2, seed=8))
        save_manifest(corpus, tmp_path)
        assert validate_corpus(load_manifest(tmp_path)) == []
        frames = frames.copy()
        _segment_rows(frames, corpus.segments, 3)[-1, 0] = np.nan
        _segment_rows(frames, corpus.segments, 11)[0, -1] = np.inf
        save_manifest(_pooled(corpus, frames), tmp_path)
        assert [message for _, message in _load_issues(tmp_path)] == [
            "segment 3 contains NaN or inf", "segment 11 contains NaN or inf"]

    def test_load_manifest_rejects_nan(self, tmp_path, small_corpus):
        # a NaN written straight into corpus.idx's means
        save_manifest(small_corpus, tmp_path)
        edit_index(tmp_path / "corpus.idx", lambda a: a["means"].__setitem__((0, 5), np.nan))
        with pytest.raises(CorruptArtifact, match="segment 0 contains NaN or inf"):
            load_manifest(tmp_path)


def _reference_feat_bytes(corpus, frames):
    """corpus.feat as a bytearray grown segment by segment."""
    blob = bytearray(FEAT_MAGIC)
    blob += struct.pack("<III", FEAT_VERSION, corpus.feat_dim, 0)
    for sid in range(len(corpus.segments)):
        blob += np.ascontiguousarray(_segment_rows(frames, corpus.segments, sid), dtype="<f4").tobytes()
    return bytes(blob)


def test_save_manifest_feature_bytes(tmp_path, small_corpus, small_frames):
    # corpus.feat is written as gen writes it: rendered into atomic_write's temp file
    generated = tmp_path / "generated"
    generated.mkdir()
    cfg = SynthConfig(n_speakers=8, recordings_per_speaker=5, unknown_speaker_count=3, seed=555)
    corpus = atomic_write(generated / "corpus.feat", lambda feat: generate_corpus(cfg, feat))
    save_manifest(corpus, generated)
    assert sorted(p.name for p in generated.iterdir()) == ["corpus.feat", "corpus.idx"]
    assert (generated / "corpus.feat").read_bytes() == _reference_feat_bytes(small_corpus, small_frames)
    loaded = load_manifest(generated)
    save_manifest(loaded, tmp_path / "loaded")
    assert (generated / "corpus.idx").read_bytes() == (tmp_path / "loaded" / "corpus.idx").read_bytes()
    assert not (tmp_path / "loaded" / "corpus.feat").exists()  # save_manifest writes the index alone


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
    assert got.means.dtype == np.float64
    assert got.means.tobytes() == want.means.tobytes()  # bit-exact: the index stores gen's means
    assert not got.means.flags.writeable and not got.means.flags.owndata  # a view of the file's bytes
    assert np.array_equal(got.n_frames, want.n_frames)
    assert np.array_equal(got.oracle, want.oracle)


def test_manifest_round_trip_preserves_heldout(tmp_path, small_corpus):
    marked = assign_heldout_split(small_corpus, 0.2, seed=3)
    save_manifest(marked, tmp_path)
    loaded = load_manifest(tmp_path)
    assert {r.recording_id for r in heldout_recordings(loaded)} == {
        r.recording_id for r in heldout_recordings(marked)
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
    assert loaded.segments.means.tobytes() == corpus.segments.means.tobytes()
    assert np.array_equal(loaded.segments.n_frames, corpus.segments.n_frames)
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
        assert trials.shape == (100, 3) and trials.dtype == np.int64
        assert trials[:, 2].tolist() == [1] * 50 + [0] * 50
        again = split_trials(corpus, 50, 50, seed=7)
        assert np.array_equal(trials, again)

    def test_cross_recording_and_disjoint_from_training(self, small_corpus):
        corpus = self._held(small_corpus)
        trials = split_trials(corpus, 40, 40, seed=1)
        heldout_ids = {s for r in heldout_recordings(corpus) for s in r.segment_ids()}
        recording_of = {s: r.recording_id for r in corpus.recordings for s in r.segment_ids()}
        oracle = corpus.segments.oracle
        for enroll, test, is_target in trials.tolist():
            assert enroll != test
            assert recording_of[enroll] != recording_of[test]
            assert enroll in heldout_ids and test in heldout_ids
            same = oracle[enroll] == oracle[test]
            assert same == bool(is_target)

    def test_insufficient_segments(self):
        # one speaker only: non-target pairs are impossible
        recordings = [Recording(r, 0, [[2 * r, 2 * r + 1]], heldout=r >= 2) for r in range(4)]
        corpus = corpus_of(1, recordings, constant_segments([0] * 8))
        with pytest.raises(InsufficientSegments):
            split_trials(corpus, 5, 10, seed=3)

    def test_no_heldout_material(self, small_corpus):
        with pytest.raises(InsufficientSegments):
            split_trials(small_corpus, 10, 10, seed=0)


def test_trials_tsv_round_trip(tmp_path, small_corpus):
    corpus = assign_heldout_split(small_corpus, 0.25, seed=4)
    trials = split_trials(corpus, 20, 20, seed=5)
    save_trials(trials, tmp_path / "trials.tsv")
    loaded = load_trials(tmp_path / "trials.tsv", corpus.segments.oracle)
    assert loaded.dtype == np.int64 and np.array_equal(loaded, trials)


@st.composite
def trial_arrays(draw):
    """(an oracle label per segment, an (n, 3) int64 trial array over its known speakers' segments).

    Each row's flag is 1 exactly when its two segments share an oracle speaker, as split_trials draws them.
    """
    oracle = np.array(draw(st.lists(st.integers(NOISE, 3), min_size=1, max_size=40)), dtype=np.int64)
    known = np.flatnonzero(oracle >= 0).tolist()
    pairs = draw(st.lists(st.tuples(st.sampled_from(known), st.sampled_from(known)), max_size=30)) if known else []
    rows = [(a, b, int(oracle[a] == oracle[b])) for a, b in pairs]
    return oracle, np.array(rows, dtype=np.int64).reshape(-1, 3)


def _obeys_the_oracle(trials, oracle):
    enroll, test = oracle[trials[:, 0]], oracle[trials[:, 1]]
    return bool(((enroll >= 0) & (test >= 0) & ((enroll == test) == (trials[:, 2] == 1))).all())


@settings(max_examples=100, deadline=None)
@given(trial_arrays())
def test_trials_tsv_round_trip_of_any_array(tmp_path_factory, case):
    oracle, trials = case
    path = tmp_path_factory.mktemp("trials") / "trials.tsv"
    save_trials(trials, path)
    loaded = load_trials(path, oracle)
    assert loaded.dtype == np.int64 and loaded.shape == trials.shape and np.array_equal(loaded, trials)


@settings(max_examples=200, deadline=None)
@given(trial_arrays(), st.data())
def test_damaged_trials_tsv_is_rejected_or_in_range(tmp_path_factory, case, data):
    """A trials.tsv cut at any byte, or with one bit flipped, raises CorruptArtifact or loads
    rows whose ids lie in 0..n_segments-1, whose labels are 0 or 1, and which pair known
    speakers' segments flagged 1 exactly when their oracle speakers match."""
    oracle, trials = case
    path = tmp_path_factory.mktemp("damaged") / "trials.tsv"
    save_trials(trials, path)
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="cut"):
        raw = raw[:data.draw(st.integers(0, len(raw)), label="length")]
    else:
        raw[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path.write_bytes(bytes(raw))
    try:
        loaded = load_trials(path, oracle)
    except CorruptArtifact:
        return
    assert loaded.dtype == np.int64 and loaded.shape[1:] == (3,)
    assert ((loaded[:, :2] >= 0) & (loaded[:, :2] < len(oracle))).all()
    assert np.isin(loaded[:, 2], (0, 1)).all()
    assert _obeys_the_oracle(loaded, oracle)


# segments 0 and 1 voice speaker 0, segment 2 speaker 1; segment 3 an unknown speaker, 4 noise
LINE_ORACLE = np.array([0, 0, 1, UNKNOWN, NOISE], dtype=np.int64)


@pytest.mark.parametrize("line", [
    "0\t1\t01", "0\t1\t+1", "0\t1\t1.0", "0\t1\t2",  # the label is the text 0 or 1
    "-1\t1\t1", "0\t-1\t0", "5\t1\t1", "0\t5\t0",  # ids lie in 0..n-1, here n = 5
    "0\t1", "0\t1\t1\t0",  # a missing field, an extra field
], ids=["label_01", "label_plus_1", "label_1.0", "label_2", "enroll_minus_1", "test_minus_1", "enroll_n",
        "test_n", "missing_field", "extra_field"])
def test_load_trials_rejects_line(tmp_path, line):
    path = tmp_path / "trials.tsv"
    path.write_text(f"0\t1\t1\n{line}\n")
    with pytest.raises(CorruptArtifact, match="line 2 "):
        load_trials(path, LINE_ORACLE)


@pytest.mark.parametrize("row", ["0\t2\t1", "2\t1\t1", "0\t1\t0", "2\t2\t0", "0\t3\t0", "3\t3\t1", "4\t2\t0"],
                         ids=["nontarget_flagged_1", "nontarget_flagged_1_reversed", "target_flagged_0",
                              "same_segment_flagged_0", "unknown_speaker", "unknown_with_itself", "noise"])
def test_load_trials_rejects_row_against_the_oracle(tmp_path, row):
    path = tmp_path / "trials.tsv"
    path.write_text("0\t1\t1\n2\t0\t0\n")
    assert load_trials(path, LINE_ORACLE).tolist() == [[0, 1, 1], [2, 0, 0]]
    path.write_text(f"0\t1\t1\n2\t0\t0\n{row}\n")
    with pytest.raises(CorruptArtifact, match=f"trial {row.replace(chr(9), ' ')} of oracle speakers"):
        load_trials(path, LINE_ORACLE)


def test_mean_frames_matches_direct_average(tmp_path, tiny_corpus):
    save_manifest(tiny_corpus, tmp_path)
    want = segment_means(constant_features(TINY_VALUES))
    assert load_manifest(tmp_path).mean_frames().tobytes() == want.tobytes()


def _ragged_corpus(n_segments, seed=0, feat_dim=5, empty=None):
    """(corpus, features): segments of 1..40 frames (a third with one frame); segment `empty` has none."""
    rng = np.random.default_rng(seed)
    features = []
    for sid in range(n_segments):
        n = 0 if sid == empty else 1 if rng.random() < 0.33 else int(rng.integers(2, 41))
        features.append((rng.standard_normal((n, feat_dim)) * rng.uniform(0.01, 50)).astype(np.float32))
    corpus = corpus_of(1, [Recording(0, 0, [list(range(n_segments))])], make_segments(features, [0] * n_segments))
    return corpus, features


def _save_ragged(directory, n_segments, **kwargs):
    corpus, features = _ragged_corpus(n_segments, **kwargs)
    save_manifest(corpus, directory)
    return features


class TestMeanFrames:
    def test_bitwise_equal_to_per_segment_mean(self, tmp_path):
        # gen's pooling of one frame matrix is each segment's frames averaged on their own, and a load returns it
        corpus, features = _ragged_corpus(549)
        lengths = np.array([len(f) for f in features])
        pooled = np.empty((len(features), 5))
        pool_frames(np.concatenate(features), lengths, pooled)
        assert pooled.tobytes() == segment_means(features).tobytes()
        save_manifest(corpus, tmp_path)
        mat = load_manifest(tmp_path).mean_frames()
        assert mat.shape == (len(features), 5)
        assert mat.tobytes() == pooled.tobytes()

    def test_second_call_returns_same_read_only_result(self, tmp_path):
        _save_ragged(tmp_path, 10)
        corpus = load_manifest(tmp_path)
        mat = corpus.mean_frames()
        assert corpus.mean_frames() is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_zero_frame_segment_raises(self, tmp_path):
        victim = 258
        _save_ragged(tmp_path, 261, empty=victim)
        with pytest.raises(CorruptArtifact, match=f": EmptySegment: segment {victim} has no frames$"):
            load_manifest(tmp_path)

    def test_pooling_runs_once_per_corpus(self, tmp_path, monkeypatch):
        # gen pools each rendered block once; a load and mean_frames pool nothing
        calls = []
        real = weaksv.corpus.pool_frames
        counting = lambda *a: calls.append(len(a[1])) or real(*a)
        monkeypatch.setattr(weaksv.synth, "pool_frames", counting)
        monkeypatch.setattr(weaksv.corpus, "pool_frames", counting)
        monkeypatch.setattr(weaksv.synth, "RENDER_BLOCK", 64)
        corpus = generate_corpus(SynthConfig(n_speakers=3, recordings_per_speaker=2, seed=4))
        assert len(calls) > 3 and sum(calls) == len(corpus.segments)
        n_gen = len(calls)
        save_manifest(corpus, tmp_path)
        loaded = load_manifest(tmp_path)
        for _ in range(4):
            loaded.mean_frames()
        assert len(calls) == n_gen


# index edit -> the check that must reject it; edit_index rewrites the header to count the edited arrays
MALFORMED_INDEX = {
    "negative_cluster": (lambda a: a["n_clusters"].__setitem__(0, -1), "cluster counts"),
    "cluster_past_declared": (lambda a: a["n_clusters"].__setitem__(0, a["n_clusters"][0] + 1), "cluster counts"),
    "sizes_not_adding_up": (lambda a: a["sizes"].__setitem__(0, a["sizes"][0] + 1), "cluster sizes"),
    "size_overflow": (lambda a: a["sizes"].__setitem__(0, 2**62), "cluster sizes"),
    "split": (lambda a: a["heldout"].__setitem__(0, 2), "held-out flag other than 0 or 1"),
    # segment 0's -2 frames and two more for segment 1: the sum still matches
    "negative_frames": (lambda a: a["n_frames"].__setitem__(slice(0, 2), [-2, a["n_frames"][:2].sum() + 2]),
                        "frame counts"),
    # one count of 2**62 is past (2**63 - 1) // 9, the bound for tiny_corpus's 9 segments
    "frame_count_overflow": (lambda a: a["n_frames"].__setitem__(0, 2**62), "frame counts"),
    # one more oracle label than frame counts: the header counts S from the labels
    "extra_field": (lambda a: a.__setitem__("oracle", np.append(a["oracle"], 0)), "bytes, not the"),
}


@pytest.mark.parametrize("case", MALFORMED_INDEX)
def test_load_manifest_rejects_malformed_index(tmp_path, tiny_corpus, case):
    edit, message = MALFORMED_INDEX[case]
    save_manifest(tiny_corpus, tmp_path)
    edit_index(tmp_path / "corpus.idx", edit)
    with pytest.raises(CorruptArtifact, match=message):
        load_manifest(tmp_path)


@pytest.mark.parametrize("label", [1000, 8, -3])
def test_load_manifest_rejects_oracle_outside_its_labels(tmp_path, small_corpus, label):
    # small_corpus has 8 speakers: its labels are NOISE, UNKNOWN and 0..7
    save_manifest(small_corpus, tmp_path)
    edit_index(tmp_path / "corpus.idx", lambda a: a["oracle"].__setitem__(0, label))
    with pytest.raises(CorruptArtifact, match=f": BadOracle: segment 0 oracle label {label} outside -2..7$"):
        load_manifest(tmp_path)


def test_load_manifest_rejects_zero_feature_dim(tmp_path, tiny_corpus):
    # header D = 0 and no means: the size the counts give is the file's
    save_manifest(tiny_corpus, tmp_path)
    edit_index(tmp_path / "corpus.idx", lambda a: a.__setitem__("means", np.zeros((len(a["oracle"]), 0))))
    with pytest.raises(CorruptArtifact, match="feature dimension of 0"):
        load_manifest(tmp_path)


def _untarget_speaker_1(recordings, segments):
    """Renumber speaker 1 to 2, so no recording targets speaker 1 of the loaded corpus."""
    segments.oracle[segments.oracle == 1] = 2
    for rec in recordings[2:]:
        rec.target = 2


# issue kind -> edit of tiny_corpus's recordings and segment table that breaks only that invariant (first)
BROKEN_CONTRACTS = {
    # segment 4's frames go to segment 5
    "EmptySegment": lambda r, s: s.n_frames.__setitem__(slice(4, 6), [0, s.n_frames[4] + s.n_frames[5]]),
    "NonFiniteFeatures": lambda r, s: s.means.__setitem__((4, 1), np.inf),
    "BadOracle": lambda r, s: s.oracle.__setitem__(4, 2),
    "DuplicateRecording": lambda r, s: setattr(r[1], "recording_id", 0),
    "BadTarget": lambda r, s: setattr(r[1], "target", -1),
    "EmptyRecording": lambda r, s: setattr(r[1], "clusters", []),
    "EmptyCluster": lambda r, s: r[0].clusters.append([]),
    "MissingSegment": lambda r, s: r[0].clusters[0].append(99),
    "DuplicateSegment": lambda r, s: r[0].clusters[1].append(0),
    "MissingTargetSpeech": lambda r, s: setattr(r[1], "target", 1),
    "UntargetedSpeaker": _untarget_speaker_1,
}


@pytest.mark.parametrize("kind", BROKEN_CONTRACTS)
def test_load_manifest_runs_validate_corpus(tmp_path, tiny_corpus, kind):
    save_manifest(tiny_corpus, tmp_path)
    assert validate_corpus(load_manifest(tmp_path)) == []
    recordings, s = tiny_recordings(), tiny_corpus.segments
    segments = Segments(s.means.copy(), s.n_frames.copy(), s.oracle.copy())
    BROKEN_CONTRACTS[kind](recordings, segments)
    save_manifest(corpus_of(tiny_corpus.n_speakers, recordings, segments), tmp_path)
    with pytest.raises(CorruptArtifact, match=f": {kind}: "):
        load_manifest(tmp_path)


# ---------------------------------------------------------------------------
# Property tests over random segment tables
# ---------------------------------------------------------------------------


@st.composite
def segment_tables(draw):
    """(corpus, frame matrix): a contract-valid corpus over a random segment table.

    It has 1..12 segments, or 257..552. Frame counts are 1..6 and oracle labels known, UNKNOWN or NOISE.
    A random subset of the segments is split into recordings of one or two
    clusters; the rest belong to no cluster, as noise that diarization
    dropped does. Targets are dense (each of the 1..3 speakers targets a
    recording) and every recording's first member voices its target.
    """
    n = draw(st.one_of(st.integers(1, 12), st.integers(257, 552)))
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
    return corpus_of(n_speakers, recordings, make_segments(features, oracle)), np.concatenate(features)


def _means_of(frames, n_frames):
    """Reference pooling of a frame matrix whose segment i is its next n_frames[i] rows."""
    if len(n_frames) == 0:
        return np.zeros((0, frames.shape[1]))
    bounds = np.concatenate([[0], np.cumsum(n_frames)]).tolist()
    return segment_means([frames[a:b] for a, b in zip(bounds[:-1], bounds[1:])])


@settings(max_examples=25, deadline=None)
@given(segment_tables())
def test_segment_table_manifest_round_trip(tmp_path_factory, table):
    corpus, frames = table
    first, second = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")
    save_manifest(corpus, first)
    loaded = load_manifest(first)
    assert loaded.segments.means.tobytes() == corpus.segments.means.tobytes()
    assert loaded.segments.n_frames.tolist() == corpus.segments.n_frames.tolist()
    assert loaded.segments.oracle.tolist() == corpus.segments.oracle.tolist()
    assert [(r.recording_id, r.target, r.clusters, r.heldout) for r in loaded.recordings] == [
        (r.recording_id, r.target, r.clusters, r.heldout) for r in corpus.recordings]
    assert loaded.n_speakers == corpus.n_speakers
    save_manifest(loaded, second)
    assert (first / "corpus.idx").read_bytes() == (second / "corpus.idx").read_bytes()


@settings(max_examples=25, deadline=None)
@given(segment_tables())
def test_segment_table_mean_frames_is_per_segment_mean(tmp_path_factory, table):
    # gen's pooling of the frame matrix is bitwise the per-segment means, and a load returns them
    corpus, frames = table
    pooled = _pooled(corpus, frames)
    assert pooled.segments.means.tobytes() == _means_of(frames, corpus.segments.n_frames).tobytes()
    path = tmp_path_factory.mktemp("means")
    save_manifest(pooled, path)
    assert load_manifest(path).mean_frames().tobytes() == pooled.segments.means.tobytes()


@settings(max_examples=25, deadline=None)
@given(segment_tables(), st.data())
def test_validate_names_exactly_the_segments_with_non_finite_frames(tmp_path_factory, table, data):
    corpus, frames = table
    rows = data.draw(st.sets(st.integers(0, frames.shape[0] - 1), min_size=1, max_size=6))
    for row in rows:
        frames[row, row % 3] = [np.nan, np.inf, -np.inf][row % 3]
    path = tmp_path_factory.mktemp("nonfinite")
    save_manifest(_pooled(corpus, frames), path)
    owner = np.repeat(np.arange(len(corpus.segments)), corpus.segments.n_frames)  # frame row -> segment
    want = sorted({int(owner[row]) for row in rows})
    assert _load_issues(path) == [("NonFiniteFeatures", f"segment {sid} contains NaN or inf") for sid in want]


@settings(max_examples=25, deadline=None)
@given(segment_tables(), st.data())
def test_zero_frame_segment_is_the_first_issue(tmp_path_factory, table, data):
    corpus, frames = table
    n, n_frames = len(corpus.segments), corpus.segments.n_frames
    assume(n > 1)
    sid = data.draw(st.integers(0, n - 1))
    other = sid + 1 if sid + 1 < n else sid - 1  # the last segment's frames go to the one before it
    n_frames[other] += n_frames[sid]
    n_frames[sid] = 0
    for row in data.draw(st.sets(st.integers(0, frames.shape[0] - 1), max_size=3)):
        frames[row, 0] = np.nan
    path = tmp_path_factory.mktemp("empty")
    save_manifest(_pooled(corpus, frames), path)
    assert _load_issues(path)[0] == ("EmptySegment", f"segment {sid} has no frames")


def _reference_issues(corpus, frames):
    """validate_corpus as plain loops over segments, recordings and members (the reference).

    A segment's finiteness is read from its rows of the frame matrix frames.
    """
    segments, recordings, n_speakers = corpus.segments, corpus.recordings, corpus.n_speakers
    n = len(segments)
    issues = [("EmptySegment", f"segment {sid} has no frames")
              for sid in range(n) if segments.n_frames[sid] < 1]
    issues += [("NonFiniteFeatures", f"segment {sid} contains NaN or inf")
               for sid in range(n) if not np.isfinite(_segment_rows(frames, segments, sid)).all()]
    issues += [("BadOracle", f"segment {sid} oracle label {segments.oracle[sid]} outside {NOISE}..{n_speakers - 1}")
               for sid in range(n) if not NOISE <= segments.oracle[sid] < n_speakers]
    ids = [r.recording_id for r in recordings]
    issues += [("DuplicateRecording", f"recording id {rid} is used by {ids.count(rid)} recordings")
               for rid in sorted(set(ids)) if ids.count(rid) > 1]
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


def _break_contract(n_speakers, recordings, n_frames, oracle, frames, rng):
    """One to three random breaks of the corpus contract and its frame matrix, each of a random kind.

    The Recording list, frame counts, oracle labels and frames are edited in place; returns the new n_speakers.
    """
    for _ in range(int(rng.integers(1, 4))):
        rec = recordings[int(rng.integers(len(recordings)))]
        damage = int(rng.integers(9))
        if damage == 0:
            rec.target = int(rng.integers(-2, n_speakers + 2))
        elif damage == 1:
            rec.clusters = []
        elif damage == 2:
            rec.clusters.insert(int(rng.integers(len(rec.clusters) + 1)), [])
        elif damage == 3 and rec.clusters:  # a stray, a shared or a repeated member
            rec.clusters[int(rng.integers(len(rec.clusters)))].append(int(rng.integers(-2, len(n_frames) + 2)))
        elif damage == 4:
            n_speakers += int(rng.integers(1, 3))
        elif damage == 5:
            frames[int(rng.integers(frames.shape[0])), 0] = np.nan
        elif damage == 6 and len(n_frames) > 1:  # segment sid's frames go to segment sid - 1
            sid = int(rng.integers(1, len(n_frames)))
            n_frames[sid - 1] += n_frames[sid]
            n_frames[sid] = 0
        elif damage == 7:  # another recording's id
            rec.recording_id = recordings[int(rng.integers(len(recordings)))].recording_id
        elif damage == 8:  # any label, in NOISE..n_speakers-1 or past either end
            oracle[int(rng.integers(len(oracle)))] = int(rng.integers(NOISE - 2, n_speakers + 2))
    return n_speakers


@settings(max_examples=50, deadline=None)
@given(segment_tables(), st.integers(0, 2**32 - 1), st.booleans())
def test_validate_matches_loop_reference(table, seed, broken):
    corpus, frames = table
    assert validate_corpus(corpus) == []
    if broken:
        # the edited recordings, frame counts and frames make a new corpus, its means pooled as gen pools them
        recordings, n_frames, oracle = corpus.recordings, corpus.segments.n_frames.copy(), corpus.segments.oracle.copy()
        n_speakers = _break_contract(corpus.n_speakers, recordings, n_frames, oracle, frames,
                                     np.random.default_rng(seed))
        segments = Segments(_means_of(frames, n_frames), n_frames, oracle)
        corpus = corpus_of(n_speakers, recordings, segments)
    assert [(i.kind, i.message) for i in validate_corpus(corpus)] == _reference_issues(corpus, frames)


def _facts(corpus):
    """Everything a corpus holds, as plain values."""
    segments = corpus.segments
    return (corpus.n_speakers, [(r.recording_id, r.target, r.clusters, r.heldout) for r in corpus.recordings],
            segments.means.tobytes(), segments.n_frames.tolist(), segments.oracle.tolist())


def _table_facts(table):
    return [a.tolist() for a in (table.ids, table.targets, table.heldout, table.n_clusters, table.sizes, table.members)]


@settings(max_examples=25, deadline=None)
@given(segment_tables())
def test_loaded_table_and_recordings_agree(tmp_path_factory, table):
    corpus, _ = table
    path = tmp_path_factory.mktemp("agree")
    save_manifest(corpus, path)
    loaded = load_manifest(path)
    assert _facts(loaded) == _facts(corpus)
    rebuilt = corpus_of(loaded.n_speakers, loaded.recordings, loaded.segments).table
    assert _table_facts(loaded.table) == _table_facts(rebuilt)
    assert _table_facts(rebuilt) == _table_facts(corpus.table)


def test_cluster_table_is_read_only(tmp_path, small_corpus):
    save_manifest(small_corpus, tmp_path)
    for corpus in (load_manifest(tmp_path), small_corpus):
        with pytest.raises(ValueError):
            corpus.table.members[0] = 1


# ---------------------------------------------------------------------------
# Damage to corpus.idx
# ---------------------------------------------------------------------------


def _flipped(raw, bit):
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << bit % 8
    return bytes(damaged)


def _load_or_reject(path, raw):
    """Write raw as path's corpus.idx and load: the corpus, or None when load_manifest rejects it as corrupt."""
    (path / "corpus.idx").write_bytes(raw)
    try:
        return load_manifest(path)
    except CorruptArtifact:
        return None


@settings(max_examples=100, deadline=None)
@given(segment_tables(), st.data())
def test_damaged_index_is_rejected_or_valid(tmp_path_factory, table, data):
    """A cut, appended bytes or a bit flip in the header is rejected; a body bit flip (in the int64
    arrays or the float64 means) is rejected or loads a valid corpus. Any other exception fails the test."""
    path = tmp_path_factory.mktemp("damaged")
    save_manifest(table[0], path)
    raw = (path / "corpus.idx").read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    assert _load_or_reject(path, raw[:cut]) is None
    assert _load_or_reject(path, raw + data.draw(st.binary(min_size=1, max_size=9), label="tail")) is None
    assert _load_or_reject(path, _flipped(raw, data.draw(st.integers(0, 48 * 8 - 1), label="header bit"))) is None
    loaded = _load_or_reject(path, _flipped(raw, data.draw(st.integers(48 * 8, len(raw) * 8 - 1), label="body bit")))
    assert loaded is None or validate_corpus(loaded) == []


def test_every_header_bit_flip_is_rejected(tmp_path, tiny_corpus):
    save_manifest(tiny_corpus, tmp_path)
    raw = (tmp_path / "corpus.idx").read_bytes()
    assert [bit for bit in range(48 * 8) if _load_or_reject(tmp_path, _flipped(raw, bit)) is not None] == []
