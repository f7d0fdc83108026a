import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weaksv.selection
from weaksv.corpus import ClusterTable, Corpus, assign_heldout_split
from weaksv.diarize import PRESETS, apply_diarization
from weaksv.embedder import Checkpoint, EmbedderConfig, forward_pooled, init_params
from weaksv.errors import ConfigError, CorruptArtifact
from weaksv.selection import (
    SelectionResult,
    SelectionStats,
    UnknownPool,
    load_selection,
    load_unknown_pool,
    save_selection,
    save_unknown_pool,
    score_train_segments,
    select_unknown_pool,
    selection_stats,
    self_label,
)
from weaksv.synth import SynthConfig, generate_corpus
from weaksv.trainer import StageConfig, train_stage1

from conftest import constant_segments, corpus_of, heldout_recordings, make_segments, train_recordings

MODEL = EmbedderConfig(feat_dim=20, hidden_dim=24, emb_dim=12)


@pytest.fixture(scope="module")
def trained(small_corpus):
    corpus = apply_diarization(assign_heldout_split(small_corpus, 0.2, seed=1),
                               PRESETS["baseline"])
    result = train_stage1(corpus, StageConfig(epochs=12, batch_size=24), MODEL, seed=2)
    return corpus, result.checkpoint


def _oracle_setup():
    """A corpus plus a checkpoint whose argmax equals the oracle exactly.

    Every segment renders its speaker's canonical feature vector without
    noise, and the prototypes are the embeddings of those canonical
    vectors, so each segment scores cosine 1 with its own speaker.
    """
    from weaksv.corpus import Recording

    n_spk, feat = 3, 4
    canon = 0.1 + 0.8 * np.eye(n_spk, feat)
    features, oracle, recordings = [], [], []
    for rec_id in range(6):
        target = rec_id % n_spk
        distractor = (target + 1) % n_spk
        clusters = []
        for spk in (target, distractor):
            clusters.append([len(oracle)])
            features.append(np.tile(canon[spk], (3, 1)).astype(np.float32))
            oracle.append(spk)
        recordings.append(Recording(rec_id, target, clusters))
    corpus = corpus_of(n_spk, recordings, make_segments(features, oracle))

    cfg = EmbedderConfig(feat_dim=feat, hidden_dim=5, emb_dim=4)
    params = init_params(cfg, n_spk, seed=0)
    from weaksv.embedder import forward_pooled

    emb, _ = forward_pooled(canon, params)
    assert np.max(emb @ emb.T - np.eye(n_spk)) < 0.999  # prototypes distinct
    params["P"] = emb.copy()
    return corpus, Checkpoint(cfg, params)


class TestSelfLabel:
    def test_rule_keep_iff_argmax_is_target(self, trained):
        corpus, ckpt = trained
        pooled = corpus.mean_frames()
        from weaksv.embedder import forward_pooled

        result = self_label(corpus, score_train_segments(corpus, ckpt))
        selected_ids = set(result.selected[:, 0].tolist())
        for rec in train_recordings(corpus):
            for sid in rec.segment_ids():
                emb, _ = forward_pooled(pooled[sid][None, :], ckpt.params)
                pred = int(np.argmax(emb[0] @ ckpt.params["P"].T))
                assert (sid in selected_ids) == (pred == rec.target)

    def test_labels_are_recording_targets(self, trained):
        corpus, ckpt = trained
        for sid, label in self_label(corpus, score_train_segments(corpus, ckpt)).selected.tolist():
            assert label == _target_of(corpus, sid)

    def test_heldout_segments_never_selected(self, trained):
        corpus, ckpt = trained
        heldout = {s for r in heldout_recordings(corpus) for s in r.segment_ids()}
        selected = self_label(corpus, score_train_segments(corpus, ckpt)).selected
        assert not set(selected[:, 0].tolist()) & heldout

    def test_oracle_classifier_yields_perfect_stats(self):
        corpus, ckpt = _oracle_setup()
        result = self_label(corpus, score_train_segments(corpus, ckpt))
        assert result.stats.precision == 1.0
        assert result.stats.recall == 1.0


class TestSelectionStats:
    def test_counting(self, trained):
        corpus, _ = trained
        oracle_target = [
            (sid, rec.target)
            for rec in train_recordings(corpus)
            for sid in rec.segment_ids()
            if corpus.segments.oracle[sid] == rec.target
        ]
        # 10 selected, 9 correct: drop one correct and add one wrong label
        wrong = next(
            (sid, rec.target)
            for rec in train_recordings(corpus)
            for sid in rec.segment_ids()
            if corpus.segments.oracle[sid] != rec.target
        )
        chosen = oracle_target[:9] + [wrong]
        stats = selection_stats(np.array(chosen), corpus)
        assert stats.precision == pytest.approx(0.9)
        assert stats.recall == pytest.approx(9 / len(oracle_target))

    def test_select_everything_gives_full_recall(self, trained):
        corpus, _ = trained
        everything = [
            (sid, rec.target)
            for rec in train_recordings(corpus)
            for sid in rec.segment_ids()
        ]
        stats = selection_stats(np.array(everything), corpus)
        assert stats.recall == 1.0

    def test_empty_selection_flagged(self, trained):
        corpus, _ = trained
        stats = selection_stats(np.empty((0, 2), dtype=np.int64), corpus)
        assert stats.empty_selection and stats.precision == 0.0

    def test_frames_counted(self, trained):
        corpus, ckpt = trained
        stats = self_label(corpus, score_train_segments(corpus, ckpt)).stats
        assert stats.selected_frames > 0
        assert stats.oracle_target_frames >= stats.selected_frames * stats.precision * 0.5


class TestUnknownPool:
    def test_disjoint_from_selection(self, trained):
        corpus, ckpt = trained
        scored = score_train_segments(corpus, ckpt)
        selected = set(self_label(corpus, scored).selected[:, 0].tolist())
        pool = select_unknown_pool(scored, top_k=3, fraction=0.5)
        assert not set(pool.segment_ids.tolist()) & selected

    def test_rank_filter(self, trained):
        corpus, ckpt = trained
        pool = select_unknown_pool(score_train_segments(corpus, ckpt), top_k=3, fraction=1.0)
        pooled = corpus.mean_frames()
        from weaksv.embedder import forward_pooled

        for sid in pool.segment_ids.tolist():
            target = _target_of(corpus, sid)
            emb, _ = forward_pooled(pooled[sid][None, :], ckpt.params)
            logits = 30.0 * (emb[0] @ ckpt.params["P"].T)
            assert int(np.sum(logits > logits[target])) >= 3

    def test_fraction_truncates_by_confidence(self, trained):
        corpus, ckpt = trained
        scored = score_train_segments(corpus, ckpt)
        full = select_unknown_pool(scored, top_k=3, fraction=1.0)
        frac = select_unknown_pool(scored, top_k=3, fraction=0.25)
        expected = int(np.ceil(0.25 * len(full.segment_ids)))
        assert len(frac.segment_ids) == expected
        assert np.array_equal(frac.segment_ids, full.segment_ids[:expected])
        scores = full.lse_scores.tolist()
        assert scores == sorted(scores, reverse=True)

    def test_too_few_speakers_rejected(self, trained):
        corpus, ckpt = trained
        with pytest.raises(ConfigError):
            select_unknown_pool(score_train_segments(corpus, ckpt), top_k=corpus.n_speakers,
                                fraction=0.1)


def test_selection_artifacts_round_trip(tmp_path, trained):
    corpus, ckpt = trained
    scored = score_train_segments(corpus, ckpt)
    result = self_label(corpus, scored)
    pool = select_unknown_pool(scored, top_k=3, fraction=0.5)
    save_selection(result, tmp_path)
    save_unknown_pool(pool, tmp_path)
    loaded = load_selection(tmp_path, corpus)
    assert loaded.dtype == np.int64 and np.array_equal(loaded, result.selected)
    assert np.array_equal(load_unknown_pool(tmp_path, len(corpus.segments)), pool.segment_ids)
    stats_text = (tmp_path / "selection_stats.json").read_text()
    assert '"precision"' in stats_text and '"recall"' in stats_text


@pytest.mark.parametrize("case", ["label_not_the_target", "segment_held_out"])
def test_load_selection_rejects_a_row_self_label_could_not_make(tmp_path, trained, case):
    corpus, _ = trained
    train, held = train_recordings(corpus)[0], heldout_recordings(corpus)[0]
    good = [(train.segment_ids()[0], train.target)]
    bad = {"label_not_the_target": (train.segment_ids()[1], (train.target + 1) % corpus.n_speakers),
           "segment_held_out": (held.segment_ids()[0], held.target)}[case]

    def write(rows):
        (tmp_path / "selection.jsonl").write_text(
            "".join(f'{{"segment_id": {sid}, "label": {label}, "score": 0.5}}\n' for sid, label in rows))

    write(good)
    assert load_selection(tmp_path, corpus).tolist() == [list(good[0])]
    write(good + [bad])
    with pytest.raises(CorruptArtifact, match=f"labels segment {bad[0]} as speaker {bad[1]}"):
        load_selection(tmp_path, corpus)


# segment and speaker counts the generated artifacts index into
N_SEGMENTS, N_SPEAKERS = 500, 12


@st.composite
def tables(draw):
    """A Corpus of N_SPEAKERS speakers: recordings of drawn targets and held-out flags, each with 1-3
    clusters of 1-6 segments, the clusters holding a drawn order of all but up to 5 segment ids."""
    n_recordings = draw(st.integers(1, 8))
    n_clusters = draw(st.lists(st.integers(1, 3), min_size=n_recordings, max_size=n_recordings))
    sizes = draw(st.lists(st.integers(1, 6), min_size=sum(n_clusters), max_size=sum(n_clusters)))
    n_segments = sum(sizes) + draw(st.integers(0, 5))
    members = draw(st.permutations(range(n_segments)))[:sum(sizes)]
    targets = draw(st.lists(st.integers(0, N_SPEAKERS - 1), min_size=n_recordings, max_size=n_recordings))
    heldout = draw(st.lists(st.booleans(), min_size=n_recordings, max_size=n_recordings))
    ids, targets, n_clusters, sizes, members = (np.array(values, dtype=np.int64) for values in (
        range(n_recordings), targets, n_clusters, sizes, members))
    table = ClusterTable(ids, targets, np.array(heldout, dtype=bool), n_clusters, sizes, members)
    return Corpus(N_SPEAKERS, table, constant_segments([0] * n_segments))


def _training_targets(corpus):
    """Each training recording's segment ids -> that recording's target."""
    return {sid: r.target for r in train_recordings(corpus) for sid in r.segment_ids()}


@st.composite
def selections(draw):
    """A corpus, and a SelectionResult as self_label makes one of it: training recordings' segments
    labelled with their recording's target, in ascending segment id."""
    corpus = draw(tables())
    target_of = _training_targets(corpus)
    sids = sorted(draw(st.sets(st.sampled_from(sorted(target_of)), max_size=40))) if target_of else []
    selected = np.array([sids, [target_of[sid] for sid in sids]], dtype=np.int64).T.reshape(-1, 2)
    stats = SelectionStats(1.0, 0.5, len(sids), 2 * len(sids), 0, 0, {}, not sids)
    cosines = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(sids), max_size=len(sids)))
    return corpus, SelectionResult(selected, np.array(cosines), stats)


@st.composite
def pools(draw):
    """An UnknownPool of distinct segment ids in any order."""
    sids = draw(st.lists(st.integers(0, N_SEGMENTS - 1), unique=True, max_size=40))
    n = len(sids)
    return UnknownPool(np.array(sids, dtype=np.int64),
                       np.array(draw(st.lists(st.floats(0.0, 200.0), min_size=n, max_size=n))),
                       np.array(draw(st.lists(st.integers(0, N_SPEAKERS - 1), min_size=n, max_size=n)),
                                dtype=np.int64))


def _damaged(raw, data):
    """raw cut at a drawn byte, or with one drawn bit flipped."""
    if data.draw(st.booleans(), label="cut"):
        return raw[:data.draw(st.integers(0, max(0, len(raw) - 1)), label="at")]
    if not raw:
        return raw
    bit = data.draw(st.integers(0, len(raw) * 8 - 1), label="bit")
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << bit % 8
    return bytes(damaged)


def _load_damaged(load, path, raw):
    """load(path) after writing raw: its array, or None when it rejects the file as corrupt."""
    path.write_bytes(raw)
    try:
        return load()
    except CorruptArtifact:
        return None


@settings(max_examples=150, deadline=None)
@given(selections(), st.data())
def test_selection_file_round_trip_and_damage(tmp_path_factory, case, data):
    """selection.jsonl loads back as the selected array; a cut or a bit flip is rejected or loads rows
    of training recordings' segments labelled with their recording's target."""
    corpus, result = case
    directory = tmp_path_factory.mktemp("selection")
    save_selection(result, directory)

    def load():
        return load_selection(directory, corpus)

    loaded = load()
    assert loaded.dtype == np.int64 and loaded.shape == result.selected.shape
    assert np.array_equal(loaded, result.selected)
    raw = (directory / "selection.jsonl").read_bytes()
    got = _load_damaged(load, directory / "selection.jsonl", _damaged(raw, data))
    if got is not None:
        assert got.dtype == np.int64 and got.shape[1:] == (2,)
        assert ((0 <= got) & (got < [len(corpus.segments), N_SPEAKERS])).all()
        target_of = _training_targets(corpus)
        assert all(target_of.get(sid) == label for sid, label in got.tolist())


@settings(max_examples=150, deadline=None)
@given(pools(), st.data())
def test_unknown_pool_file_round_trip_and_damage(tmp_path_factory, pool, data):
    """unknown_pool.jsonl loads back as the pool's ids; a cut or a bit flip is rejected or loads ids in range."""
    directory = tmp_path_factory.mktemp("pool")
    save_unknown_pool(pool, directory)

    def load():
        return load_unknown_pool(directory, N_SEGMENTS)

    loaded = load()
    assert loaded.dtype == np.int64 and np.array_equal(loaded, pool.segment_ids)
    raw = (directory / "unknown_pool.jsonl").read_bytes()
    got = _load_damaged(load, directory / "unknown_pool.jsonl", _damaged(raw, data))
    if got is not None:
        assert got.dtype == np.int64 and got.ndim == 1
        assert ((0 <= got) & (got < N_SEGMENTS)).all()


# ---------------------------------------------------------------------------
# Array code against the per-row loops it replaced
# ---------------------------------------------------------------------------


def _reference_cosines(corpus, ckpt):
    sids = sorted(sid for rec in train_recordings(corpus) for sid in rec.segment_ids())
    emb, _ = forward_pooled(corpus.mean_frames()[sids], ckpt.params)
    return sids, emb @ ckpt.params["P"].T


def _target_of(corpus, sid):
    """The target of the recording one of whose clusters holds sid."""
    return next(rec.target for rec in corpus.recordings if sid in rec.segment_ids())


def _reference_self_label(corpus, ckpt):
    sids, cosines = _reference_cosines(corpus, ckpt)
    preds = np.argmax(cosines, axis=1)
    selected, scores = [], []
    for i, sid in enumerate(sids):
        target = _target_of(corpus, sid)
        if int(preds[i]) == target:
            selected.append([sid, target])
            scores.append(float(cosines[i, target]))
    return selected, scores


def _reference_unknown_pool(corpus, ckpt, top_k, fraction, scale=30.0):
    sids, cosines = _reference_cosines(corpus, ckpt)
    logits = scale * cosines
    preds = np.argmax(cosines, axis=1)
    survivors = []
    for i, sid in enumerate(sids):
        target = _target_of(corpus, sid)
        if int(preds[i]) == target:
            continue
        row = logits[i]
        t_logit = row[target]
        rank = int(np.sum(row > t_logit) + np.sum(row[:target] == t_logit))
        if rank < top_k:
            continue
        m = row.max()
        survivors.append((float(m + math.log(np.exp(row - m).sum())), sid, rank))
    survivors.sort(key=lambda t: (-t[0], t[1]))
    kept = survivors[:math.ceil(fraction * len(survivors))]
    return [sid for _, sid, _ in kept], [lse for lse, _, _ in kept], [rank for _, _, rank in kept]


def _tied_checkpoint(ckpt):
    """Zero prototypes for every other class: their cosines are exactly 0.

    A segment whose target has a zero prototype then ties at the target
    with every other zero-prototype class, so the rank tie rule decides.
    """
    prototypes = ckpt.params["P"].copy()
    prototypes[::2] = 0.0
    return Checkpoint(ckpt.config, dict(ckpt.params, P=prototypes))


def _one_row_tail_block(corpus):
    """The smallest ROW_BLOCK of at least 5 that leaves a one-row last block."""
    n_rows = sum(len(rec.segment_ids()) for rec in train_recordings(corpus))
    return next(b for b in range(5, n_rows) if n_rows % b == 1)


def _set_row_block(monkeypatch, corpus, row_block):
    if row_block == "tail1":
        row_block = _one_row_tail_block(corpus)
    monkeypatch.setattr(weaksv.selection, "ROW_BLOCK", row_block)
    return row_block


class TestArrayParity:
    @pytest.fixture(params=["trained", "ties"])
    def case(self, request, trained):
        corpus, ckpt = trained
        return corpus, _tied_checkpoint(ckpt) if request.param == "ties" else ckpt

    # 1024: one block holds every row; "tail1": a block size that leaves a one-row last block
    @pytest.mark.parametrize("row_block", [1024, 7, "tail1"])
    @pytest.mark.parametrize("top_k, fraction", [(1, 1.0), (3, 1.0), (3, 0.3), (5, 0.5)])
    def test_unknown_pool_matches_row_loop(self, case, monkeypatch, row_block, top_k, fraction):
        corpus, ckpt = case
        _set_row_block(monkeypatch, corpus, row_block)
        got = select_unknown_pool(score_train_segments(corpus, ckpt), top_k=top_k, fraction=fraction)
        sids, lse_scores, target_ranks = _reference_unknown_pool(corpus, ckpt, top_k, fraction)
        assert got.segment_ids.tolist() == sids
        assert got.lse_scores.tolist() == lse_scores
        assert got.target_ranks.tolist() == target_ranks

    def test_self_label_matches_row_loop(self, case):
        corpus, ckpt = case
        got = self_label(corpus, score_train_segments(corpus, ckpt))
        selected, scores = _reference_self_label(corpus, ckpt)
        assert got.selected.tolist() == selected
        assert got.scores.tolist() == scores
        assert got.stats == selection_stats(np.array(selected, dtype=np.int64).reshape(-1, 2), corpus)

    @pytest.mark.parametrize("row_block", [7, "tail1"])
    def test_self_label_in_blocks_matches_row_loop(self, case, monkeypatch, row_block):
        corpus, ckpt = case
        _set_row_block(monkeypatch, corpus, row_block)
        got = self_label(corpus, score_train_segments(corpus, ckpt))
        selected, scores = _reference_self_label(corpus, ckpt)
        assert got.selected.tolist() == selected
        assert got.scores.tolist() == scores

    def test_cases_cover_ties_and_several_blocks(self, trained):
        corpus, ckpt = trained
        sids, cosines = _reference_cosines(corpus, _tied_checkpoint(ckpt))
        targets = np.array([_target_of(corpus, sid) for sid in sids])
        t_cos = cosines[np.arange(len(sids)), targets]
        tied_below = (cosines == t_cos[:, None]) & (np.arange(cosines.shape[1]) < targets[:, None])
        rejected = np.argmax(cosines, axis=1) != targets
        assert np.count_nonzero(tied_below.any(axis=1) & rejected) > 0
        assert np.count_nonzero(rejected) > 3 * 7


def test_selection_makes_no_per_segment_lookups(trained, monkeypatch):
    corpus, ckpt = trained
    fresh = corpus_of(corpus.n_speakers, corpus.recordings, corpus.segments)
    lookups = []
    real_recording = Corpus.recording
    monkeypatch.setattr(Corpus, "recording",
                        lambda self, rid: lookups.append(rid) or real_recording(self, rid))
    row_block = _set_row_block(monkeypatch, corpus, "tail1")
    embedded, real_forward = [], weaksv.selection.forward_pooled
    monkeypatch.setattr(weaksv.selection, "forward_pooled",
                        lambda x, params: embedded.append(x.copy()) or real_forward(x, params))
    scored = score_train_segments(fresh, ckpt)
    self_label(fresh, scored)
    select_unknown_pool(scored, top_k=3, fraction=0.5)
    pooled = fresh.mean_frames()
    assert lookups == []
    assert pooled is corpus.segments.means  # the segment table's means: nothing is pooled again
    # one embedding pass over the training segments, in ascending id order,
    # serves both selections: every row exactly once, in blocks of at most
    # ROW_BLOCK rows but for the last, which takes in a one-row tail
    assert np.array_equal(np.concatenate(embedded), pooled[scored.segment_ids])
    sizes = [len(x) for x in embedded]
    assert max(sizes[:-1]) <= row_block and sizes[-1] == row_block + 1


def test_scoring_never_holds_the_cosine_matrix(monkeypatch):
    """Selection's traced peak stays below half of a rows x speakers float64 matrix, at a small block and at
    the module's own ROW_BLOCK (at 1024 rows the peak here passed the bound)."""
    corpus = generate_corpus(SynthConfig(n_speakers=64, recordings_per_speaker=8,
                                         segments_per_recording=(6, 8), frames_per_segment=(2, 3),
                                         unknown_speaker_count=0, seed=7))
    model = EmbedderConfig(feat_dim=20, hidden_dim=16, emb_dim=8)
    ckpt = Checkpoint(model, init_params(model, corpus.n_speakers, seed=3))
    n_rows = sum(len(rec.segment_ids()) for rec in train_recordings(corpus))
    matrix_bytes = n_rows * corpus.n_speakers * 8
    for row_block in (32, weaksv.selection.ROW_BLOCK):
        monkeypatch.setattr(weaksv.selection, "ROW_BLOCK", row_block)
        tracemalloc.start()
        try:
            scored = score_train_segments(corpus, ckpt)
            self_label(corpus, scored)
            select_unknown_pool(scored, top_k=3, fraction=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes / 2, (row_block, peak, matrix_bytes)
