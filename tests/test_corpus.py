import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import weaksv.corpus
from weaksv.corpus import (
    FEAT_MAGIC,
    FEAT_VERSION,
    NOISE,
    POOL_BLOCK,
    UNKNOWN,
    Corpus,
    Recording,
    Segments,
    assign_heldout_split,
    load_manifest,
    load_trials,
    save_manifest,
    save_trials,
    split_trials,
    validate_corpus,
)
from weaksv.errors import CorruptArtifact, InsufficientSegments
from weaksv.fileio import atomic_write
from weaksv.synth import SynthConfig, generate_corpus

from conftest import (TINY_VALUES, constant_features, constant_segments, edit_index, feat_frames,
                      generate_with_frames, heldout_recordings, make_segments, segment_means, write_manifest)


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


def _segment_rows(frames, bounds, sid):
    """Segment sid's rows of the frame matrix frames (a view)."""
    return frames[bounds[sid]:bounds[sid + 1]]


class TestNonFiniteFeatures:
    def test_separate_arrays(self, tmp_path, tiny_corpus, tiny_frames):
        # the table was joined from one array per segment
        frames, bounds = tiny_frames, tiny_corpus.segments.bounds
        _segment_rows(frames, bounds, 5)[1, 2] = np.nan
        _segment_rows(frames, bounds, 2)[0, 0] = -np.inf
        write_manifest(tiny_corpus, frames, tmp_path)
        assert _load_issues(tmp_path) == [
            ("NonFiniteFeatures", "segment 2 contains NaN or inf"),
            ("NonFiniteFeatures", "segment 5 contains NaN or inf")]

    def test_shared_frame_matrix(self, tmp_path):
        corpus, frames = generate_with_frames(SynthConfig(n_speakers=4, recordings_per_speaker=2, seed=8))
        write_manifest(corpus, frames, tmp_path)
        assert validate_corpus(load_manifest(tmp_path)) == []
        frames, bounds = frames.copy(), corpus.segments.bounds
        _segment_rows(frames, bounds, 3)[-1, 0] = np.nan
        _segment_rows(frames, bounds, 11)[0, -1] = np.inf
        write_manifest(corpus, frames, tmp_path)
        assert [message for _, message in _load_issues(tmp_path)] == [
            "segment 3 contains NaN or inf", "segment 11 contains NaN or inf"]

    def test_load_manifest_rejects_nan(self, tmp_path, small_corpus, small_frames):
        write_manifest(small_corpus, small_frames, tmp_path)
        feat = tmp_path / "corpus.feat"
        raw = bytearray(feat.read_bytes())
        raw[16 + 4 * 45:16 + 4 * 46] = struct.pack("<f", float("nan"))
        feat.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifact, match="segment 0 contains NaN or inf"):
            load_manifest(tmp_path)


def _reference_feat_bytes(corpus, frames):
    """corpus.feat as a bytearray grown segment by segment."""
    blob = bytearray(FEAT_MAGIC)
    blob += struct.pack("<III", FEAT_VERSION, corpus.feat_dim, 0)
    for sid in range(len(corpus.segments)):
        blob += np.ascontiguousarray(_segment_rows(frames, corpus.segments.bounds, sid), dtype="<f4").tobytes()
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


def test_manifest_round_trip(tmp_path, small_corpus, small_frames):
    write_manifest(small_corpus, small_frames, tmp_path)
    loaded = load_manifest(tmp_path)
    assert loaded.n_speakers == small_corpus.n_speakers
    assert (loaded.segments.oracle == UNKNOWN).any() == (small_corpus.segments.oracle == UNKNOWN).any()
    assert len(loaded.recordings) == len(small_corpus.recordings)
    for a, b in zip(loaded.recordings, small_corpus.recordings):
        assert (a.recording_id, a.target, a.heldout) == (b.recording_id, b.target, b.heldout)
        assert a.clusters == b.clusters
    got, want = loaded.segments, small_corpus.segments
    assert got.means.dtype == np.float64
    assert got.means.tobytes() == want.means.tobytes()  # bit-exact: gen and load pool alike
    assert np.array_equal(got.bounds, want.bounds)
    assert np.array_equal(got.oracle, want.oracle)


def test_manifest_round_trip_preserves_heldout(tmp_path, small_corpus, small_frames):
    marked = assign_heldout_split(small_corpus, 0.2, seed=3)
    write_manifest(marked, small_frames, tmp_path)
    loaded = load_manifest(tmp_path)
    assert {r.recording_id for r in heldout_recordings(loaded)} == {
        r.recording_id for r in heldout_recordings(marked)
    }


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_manifest_round_trip_property(tmp_path_factory, seed):
    corpus, frames = generate_with_frames(
        SynthConfig(n_speakers=3, recordings_per_speaker=2, segments_per_recording=(2, 4),
                    frames_per_segment=(1, 5), unknown_speaker_count=1, seed=seed))
    path = tmp_path_factory.mktemp("rt")
    write_manifest(corpus, frames, path)
    loaded = load_manifest(path)
    assert loaded.segments.means.tobytes() == corpus.segments.means.tobytes()
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
        heldout_ids = {s for r in heldout_recordings(corpus) for s in r.segment_ids()}
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
    assert load_trials(tmp_path / "trials.tsv", len(corpus.segments)) == trials


def test_mean_frames_matches_direct_average(tmp_path, tiny_corpus, tiny_frames):
    write_manifest(tiny_corpus, tiny_frames, tmp_path)
    want = segment_means(constant_features(TINY_VALUES))
    assert load_manifest(tmp_path).mean_frames().tobytes() == want.tobytes()


def _ragged_corpus(n_segments, seed=0, feat_dim=5, empty=None):
    """(corpus, features): segments of 1..40 frames (a third with one frame); segment `empty` has none."""
    rng = np.random.default_rng(seed)
    features = []
    for sid in range(n_segments):
        n = 0 if sid == empty else 1 if rng.random() < 0.33 else int(rng.integers(2, 41))
        features.append((rng.standard_normal((n, feat_dim)) * rng.uniform(0.01, 50)).astype(np.float32))
    corpus = Corpus(1, [Recording(0, 0, [list(range(n_segments))])], make_segments(features, [0] * n_segments))
    return corpus, features


def _write_ragged(directory, n_segments, **kwargs):
    corpus, features = _ragged_corpus(n_segments, **kwargs)
    write_manifest(corpus, np.concatenate(features), directory)
    return features


class TestMeanFrames:
    def test_bitwise_equal_to_per_segment_mean(self, tmp_path):
        features = _write_ragged(tmp_path, 2 * POOL_BLOCK + 37)
        mat = load_manifest(tmp_path).mean_frames()
        assert mat.shape == (len(features), 5)
        assert mat.tobytes() == segment_means(features).tobytes()

    def test_second_call_returns_same_read_only_result(self, tmp_path):
        _write_ragged(tmp_path, 10)
        corpus = load_manifest(tmp_path)
        mat = corpus.mean_frames()
        assert corpus.mean_frames() is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_zero_frame_segment_raises(self, tmp_path):
        victim = POOL_BLOCK + 2
        _write_ragged(tmp_path, POOL_BLOCK + 5, empty=victim)
        with pytest.raises(CorruptArtifact, match=f": EmptySegment: segment {victim} has no frames$"):
            load_manifest(tmp_path)

    def test_pooling_runs_once_per_corpus(self, tmp_path, monkeypatch):
        # a load pools each block of POOL_BLOCK segments once; mean_frames pools nothing
        calls = []
        real = weaksv.corpus.pool_frames
        monkeypatch.setattr(weaksv.corpus, "pool_frames", lambda *a: calls.append(len(a[1])) or real(*a))
        _write_ragged(tmp_path, 2 * POOL_BLOCK + 5)
        corpus = load_manifest(tmp_path)
        assert calls == [POOL_BLOCK, POOL_BLOCK, 5]
        for _ in range(4):
            corpus.mean_frames()
        assert len(calls) == 3
        load_manifest(tmp_path).mean_frames()
        assert len(calls) == 6


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
    # one more oracle label than frame counts: the header counts S from the labels
    "extra_field": (lambda a: a.__setitem__("oracle", np.append(a["oracle"], 0)), "bytes, not the"),
}


@pytest.mark.parametrize("case", MALFORMED_INDEX)
def test_load_manifest_rejects_malformed_index(tmp_path, tiny_corpus, tiny_frames, case):
    edit, message = MALFORMED_INDEX[case]
    write_manifest(tiny_corpus, tiny_frames, tmp_path)
    edit_index(tmp_path / "corpus.idx", edit)
    with pytest.raises(CorruptArtifact, match=message):
        load_manifest(tmp_path)


def test_load_manifest_rejects_zero_feature_dim(tmp_path, tiny_corpus, tiny_frames):
    write_manifest(tiny_corpus, tiny_frames, tmp_path)
    feat = tmp_path / "corpus.feat"
    raw = bytearray(feat.read_bytes())
    raw[8:12] = bytes(4)
    feat.write_bytes(bytes(raw))
    with pytest.raises(CorruptArtifact):
        load_manifest(tmp_path)


def _untarget_speaker_1(corpus, frames):
    """Renumber speaker 1 to 2, so no recording targets speaker 1 of the loaded corpus."""
    corpus.segments.oracle[corpus.segments.oracle == 1] = 2
    for rec in corpus.recordings[2:]:
        rec.target = 2


# issue kind -> edit of tiny_corpus and its frame matrix that breaks only that invariant (first)
BROKEN_CONTRACTS = {
    # segment 4's rows go to segment 5, so the segments still tile the matrix
    "EmptySegment": lambda c, f: c.segments.bounds.__setitem__(5, c.segments.bounds[4]),
    "NonFiniteFeatures": lambda c, f: f.__setitem__((13, 1), np.inf),
    "DuplicateRecording": lambda c, f: setattr(c.recordings[1], "recording_id", 0),
    "BadTarget": lambda c, f: setattr(c.recordings[1], "target", -1),
    "EmptyRecording": lambda c, f: setattr(c.recordings[1], "clusters", []),
    "EmptyCluster": lambda c, f: c.recordings[0].clusters.append([]),
    "MissingSegment": lambda c, f: c.recordings[0].clusters[0].append(99),
    "DuplicateSegment": lambda c, f: c.recordings[0].clusters[1].append(0),
    "MissingTargetSpeech": lambda c, f: setattr(c.recordings[1], "target", 1),
    "UntargetedSpeaker": _untarget_speaker_1,
}


@pytest.mark.parametrize("kind", BROKEN_CONTRACTS)
def test_load_manifest_runs_validate_corpus(tmp_path, tiny_corpus, tiny_frames, kind):
    write_manifest(tiny_corpus, tiny_frames, tmp_path)
    assert validate_corpus(load_manifest(tmp_path)) == []
    BROKEN_CONTRACTS[kind](tiny_corpus, tiny_frames)
    # the first save built and kept the cluster table, so the edited recordings go into a new corpus
    broken = Corpus(tiny_corpus.n_speakers, tiny_corpus.recordings, tiny_corpus.segments)
    write_manifest(broken, tiny_frames, tmp_path)
    with pytest.raises(CorruptArtifact, match=f": {kind}: "):
        load_manifest(tmp_path)


# ---------------------------------------------------------------------------
# Property tests over random segment tables
# ---------------------------------------------------------------------------


@st.composite
def segment_tables(draw):
    """(corpus, frame matrix): a contract-valid corpus over a random segment table.

    It has 1..12 segments, or more than POOL_BLOCK and up to two blocks
    more. Frame counts are 1..6 and oracle labels known, UNKNOWN or NOISE.
    A random subset of the segments is split into recordings of one or two
    clusters; the rest belong to no cluster, as noise that diarization
    dropped does. Targets are dense (each of the 1..3 speakers targets a
    recording) and every recording's first member voices its target.
    """
    n = draw(st.one_of(st.integers(1, 12), st.integers(POOL_BLOCK + 1, 2 * POOL_BLOCK + 40)))
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
    return Corpus(n_speakers, recordings, make_segments(features, oracle)), np.concatenate(features)


def _means_of(frames, bounds):
    """Reference pooling of a frame matrix whose segment i is rows bounds[i]:bounds[i+1]."""
    if len(bounds) == 1:
        return np.zeros((0, frames.shape[1]))
    return segment_means([frames[a:b] for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())])


@settings(max_examples=25, deadline=None)
@given(segment_tables())
def test_segment_table_manifest_round_trip(tmp_path_factory, table):
    corpus, frames = table
    first, second = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")
    write_manifest(corpus, frames, first)
    loaded = load_manifest(first)
    assert loaded.segments.means.tobytes() == corpus.segments.means.tobytes()
    assert loaded.segments.bounds.tolist() == corpus.segments.bounds.tolist()
    assert loaded.segments.oracle.tolist() == corpus.segments.oracle.tolist()
    assert [(r.recording_id, r.target, r.clusters, r.heldout) for r in loaded.recordings] == [
        (r.recording_id, r.target, r.clusters, r.heldout) for r in corpus.recordings]
    assert loaded.n_speakers == corpus.n_speakers
    save_manifest(loaded, second)
    assert (first / "corpus.idx").read_bytes() == (second / "corpus.idx").read_bytes()


@settings(max_examples=25, deadline=None)
@given(segment_tables())
def test_segment_table_mean_frames_is_per_segment_mean(tmp_path_factory, table):
    # the loaded means are bitwise the per-segment means of the bytes written, across POOL_BLOCK blocks
    corpus, frames = table
    path = tmp_path_factory.mktemp("means")
    write_manifest(corpus, frames, path)
    written = feat_frames((path / "corpus.feat").read_bytes())
    want = _means_of(written, corpus.segments.bounds)
    assert load_manifest(path).mean_frames().tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(segment_tables(), st.data())
def test_validate_names_exactly_the_segments_with_non_finite_frames(tmp_path_factory, table, data):
    corpus, frames = table
    rows = data.draw(st.sets(st.integers(0, frames.shape[0] - 1), min_size=1, max_size=6))
    for row in rows:
        frames[row, row % 3] = [np.nan, np.inf, -np.inf][row % 3]
    path = tmp_path_factory.mktemp("nonfinite")
    write_manifest(corpus, frames, path)
    owner = np.repeat(np.arange(len(corpus.segments)), np.diff(corpus.segments.bounds))  # frame row -> segment
    want = sorted({int(owner[row]) for row in rows})
    assert _load_issues(path) == [("NonFiniteFeatures", f"segment {sid} contains NaN or inf") for sid in want]


@settings(max_examples=25, deadline=None)
@given(segment_tables(), st.data())
def test_zero_frame_segment_is_the_first_issue(tmp_path_factory, table, data):
    corpus, frames = table
    n, bounds = len(corpus.segments), corpus.segments.bounds
    assume(n > 1)
    sid = data.draw(st.integers(0, n - 1))
    if sid + 1 < n:
        bounds[sid + 1] = bounds[sid]  # segment sid's rows go to the next segment
    else:
        bounds[sid] = bounds[sid + 1]  # the last segment's rows go to the one before it
    for row in data.draw(st.sets(st.integers(0, frames.shape[0] - 1), max_size=3)):
        frames[row, 0] = np.nan
    path = tmp_path_factory.mktemp("empty")
    write_manifest(corpus, frames, path)
    assert _load_issues(path)[0] == ("EmptySegment", f"segment {sid} has no frames")


def _reference_issues(corpus, frames):
    """validate_corpus as plain loops over segments, recordings and members (the reference).

    A segment's finiteness is read from its rows of the frame matrix frames.
    """
    segments, recordings, n_speakers = corpus.segments, corpus.recordings, corpus.n_speakers
    n = len(segments)
    issues = [("EmptySegment", f"segment {sid} has no frames")
              for sid in range(n) if segments.bounds[sid + 1] <= segments.bounds[sid]]
    issues += [("NonFiniteFeatures", f"segment {sid} contains NaN or inf")
               for sid in range(n) if not np.isfinite(_segment_rows(frames, segments.bounds, sid)).all()]
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


def _break_contract(corpus, frames, rng):
    """One to three random breaks of the corpus contract and its frame matrix, each of a random kind."""
    segments, recordings = corpus.segments, corpus.recordings
    for _ in range(int(rng.integers(1, 4))):
        rec = recordings[int(rng.integers(len(recordings)))]
        damage = int(rng.integers(8))
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
            frames[int(rng.integers(frames.shape[0])), 0] = np.nan
        elif damage == 6 and len(segments) > 1:  # segment sid's rows go to segment sid - 1
            sid = int(rng.integers(1, len(segments)))
            segments.bounds[sid] = segments.bounds[sid + 1]
        elif damage == 7:  # another recording's id
            rec.recording_id = recordings[int(rng.integers(len(recordings)))].recording_id


@settings(max_examples=50, deadline=None)
@given(segment_tables(), st.integers(0, 2**32 - 1), st.booleans())
def test_validate_matches_loop_reference(table, seed, broken):
    corpus, frames = table
    assert validate_corpus(corpus) == []
    if broken:
        _break_contract(corpus, frames, np.random.default_rng(seed))
        # a corpus caches its cluster table, so the edited recordings go into a new one, with
        # the means pooled again from the edited frames and bounds, as a load would
        segments = corpus.segments
        segments = Segments(_means_of(frames, segments.bounds), segments.bounds, segments.oracle)
        corpus = Corpus(corpus.n_speakers, corpus.recordings, segments)
    assert [(i.kind, i.message) for i in validate_corpus(corpus)] == _reference_issues(corpus, frames)


def _facts(corpus):
    """Everything a corpus holds, as plain values."""
    segments = corpus.segments
    return (corpus.n_speakers, [(r.recording_id, r.target, r.clusters, r.heldout) for r in corpus.recordings],
            segments.means.tobytes(), segments.bounds.tolist(), segments.oracle.tolist())


def _table_facts(table):
    return [a.tolist() for a in (table.ids, table.targets, table.heldout, table.n_clusters, table.sizes, table.members)]


@settings(max_examples=25, deadline=None)
@given(segment_tables())
def test_loaded_table_and_recordings_agree(tmp_path_factory, table):
    corpus, frames = table
    path = tmp_path_factory.mktemp("agree")
    write_manifest(corpus, frames, path)
    loaded = load_manifest(path)
    assert _facts(loaded) == _facts(corpus)
    rebuilt = Corpus(loaded.n_speakers, loaded.recordings, loaded.segments).cluster_table()
    assert _table_facts(loaded.cluster_table()) == _table_facts(rebuilt)
    assert _table_facts(rebuilt) == _table_facts(corpus.cluster_table())


def test_cluster_table_is_read_only(tmp_path, small_corpus, small_frames):
    write_manifest(small_corpus, small_frames, tmp_path)
    for corpus in (load_manifest(tmp_path), small_corpus):
        with pytest.raises(ValueError):
            corpus.cluster_table().members[0] = 1


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
    """A cut, appended bytes or a bit flip in the header is rejected; a body bit flip is rejected or
    loads a valid corpus. Any other exception fails the test."""
    path = tmp_path_factory.mktemp("damaged")
    write_manifest(*table, path)
    raw = (path / "corpus.idx").read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    assert _load_or_reject(path, raw[:cut]) is None
    assert _load_or_reject(path, raw + data.draw(st.binary(min_size=1, max_size=9), label="tail")) is None
    assert _load_or_reject(path, _flipped(raw, data.draw(st.integers(0, 40 * 8 - 1), label="header bit"))) is None
    loaded = _load_or_reject(path, _flipped(raw, data.draw(st.integers(40 * 8, len(raw) * 8 - 1), label="body bit")))
    assert loaded is None or validate_corpus(loaded) == []


def test_every_header_bit_flip_is_rejected(tmp_path, tiny_corpus, tiny_frames):
    write_manifest(tiny_corpus, tiny_frames, tmp_path)
    raw = (tmp_path / "corpus.idx").read_bytes()
    assert [bit for bit in range(40 * 8) if _load_or_reject(tmp_path, _flipped(raw, bit)) is not None] == []
