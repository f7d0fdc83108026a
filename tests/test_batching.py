from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import constant_segments, corpus_of, heldout_recordings, train_recordings
from weaksv.batching import Bag, plan_epoch_stage1, plan_epoch_stage2
from weaksv.corpus import Recording, UNKNOWN, assign_heldout_split
from weaksv.diarize import PRESETS, apply_diarization
from weaksv.errors import BagTooLarge, EmptyCluster
from weaksv.rng import Rng
from weaksv.synth import SynthConfig, generate_corpus


# ---------------------------------------------------------------------------
# Reference planners: one bag, one row and one draw at a time
# ---------------------------------------------------------------------------


def build_bag(recording, rng):
    """Minimal covering bag: one uniform segment per cluster."""
    if not recording.clusters:
        raise EmptyCluster(f"recording {recording.recording_id} has no clusters")
    picks = []
    for cid, cluster in enumerate(recording.clusters):
        if not cluster:
            raise EmptyCluster(f"recording {recording.recording_id} cluster {cid} is empty")
        picks.append(rng.choice(cluster))
    return Bag(recording.recording_id, recording.target, tuple(picks))


def reference_stage1(corpus, target_batch_size, seed):
    """plan_epoch_stage1 as a loop over recordings; each batch is a list of Bags."""
    rng = Rng.from_seed(seed, "plan1")
    recordings = sorted(train_recordings(corpus), key=lambda r: r.recording_id)
    order = list(range(len(recordings)))
    rng.shuffle(order)
    batches, current = [], []
    for idx in order:
        rec = recordings[idx]
        bag = build_bag(rec, rng.spawn("bag", rec.recording_id))
        if bag.size > 1.1 * target_batch_size:
            raise BagTooLarge(
                f"recording {rec.recording_id} needs {bag.size} segments, over 1.1x target {target_batch_size}")
        size = sum(b.size for b in current)
        if current and size + bag.size > target_batch_size and size >= 0.9 * target_batch_size:
            batches.append(current)
            current = []
        current.append(bag)
    if current:
        batches.append(current)
    return batches


def reference_stage2(selected, target_batch_size, seed, unknown_pool=None, mix_fraction=0.0):
    """plan_epoch_stage2 as a loop over (segment id, label) pairs and a list of pool ids; each batch is a list
    of (segment id, label, known)."""
    n_unknown = round(mix_fraction * target_batch_size) if unknown_pool else 0
    known_per_batch = target_batch_size - n_unknown
    rng = Rng.from_seed(seed, "plan2")
    order = list(range(len(selected)))
    rng.shuffle(order)
    batches = []
    for start in range(0, len(order), known_per_batch):
        rows = [(*selected[i], True) for i in order[start:start + known_per_batch]]
        rows += [(rng.choice(unknown_pool), UNKNOWN, False) for _ in range(n_unknown)]
        batches.append(rows)
    return batches


def _bags(plan):
    return [batch.bags for batch in plan]


def _rows(plan):
    return [list(zip(b.segment_ids.tolist(), b.labels.tolist(), b.known.tolist())) for b in plan]


def _outcome(plan, convert, *args, **kwargs):
    """A planner's batches through convert, or the type and message of the planning error it raised."""
    try:
        return convert(plan(*args, **kwargs))
    except (EmptyCluster, BagTooLarge) as exc:
        return type(exc), str(exc)


def _one_recording_corpus(clusters, n_segments):
    return corpus_of(1, [Recording(0, 0, clusters)], constant_segments([0] * n_segments))


def _small_corpus(seed, preset=None, heldout=0.0):
    corpus = generate_corpus(SynthConfig(
        n_speakers=4, recordings_per_speaker=3, segments_per_recording=(2, 9),
        frames_per_segment=(1, 2), unknown_speaker_count=2, seed=seed))
    if heldout:
        corpus = assign_heldout_split(corpus, heldout, seed)
    if preset is not None:
        corpus = apply_diarization(corpus, replace(PRESETS[preset], seed=seed))
    return corpus


class TestBuildBag:
    """A stage-1 plan's bags: one uniformly drawn member of each cluster."""

    def test_one_segment_per_cluster(self):
        [[bag]] = _bags(plan_epoch_stage1(_one_recording_corpus([[1, 2, 3], [4], [5, 6]], 7), 3, seed=1))
        assert bag.size == 3
        assert bag.segment_ids[0] in (1, 2, 3)
        assert bag.segment_ids[1] == 4
        assert bag.segment_ids[2] in (5, 6)

    def test_single_cluster_recording(self):
        [[bag]] = _bags(plan_epoch_stage1(_one_recording_corpus([[7, 8]], 9), 16, seed=2))
        assert bag.size == 1

    def test_uniform_sampling_within_cluster(self):
        # binomial 99% interval frozen at 500 +- 60 draws: 1000 recordings with
        # a two-member cluster each, one independent pick per bag stream
        recs = [Recording(i, 0, [[2 * i, 2 * i + 1]]) for i in range(1000)]
        plan = plan_epoch_stage1(corpus_of(1, recs, constant_segments([0] * 2000)), 64, seed=3)
        hits = sum(int((batch.segment_ids % 2 == 0).sum()) for batch in plan)
        assert 440 <= hits <= 560

    def test_empty_cluster_rejected(self):
        with pytest.raises(EmptyCluster, match="recording 0 cluster 1 is empty"):
            plan_epoch_stage1(_one_recording_corpus([[1], []], 2), 16, seed=4)


class TestPlanEpochStage1:
    def _corpus(self, seed=0, **kw):
        return generate_corpus(SynthConfig(
            n_speakers=kw.get("n_speakers", 8),
            recordings_per_speaker=kw.get("recordings_per_speaker", 6),
            seed=seed))

    def test_epoch_covers_every_recording_once(self):
        corpus = self._corpus()
        batches = plan_epoch_stage1(corpus, 16, seed=5)
        seen = [b.recording_id for batch in batches for b in batch.bags]
        assert sorted(seen) == sorted(r.recording_id for r in corpus.recordings)

    def test_nonfinal_batches_within_ten_percent(self):
        corpus = self._corpus()
        target = 16
        batches = plan_epoch_stage1(corpus, target, seed=6)
        for batch in batches[:-1]:
            assert 0.9 * target <= batch.size <= 1.1 * target

    def test_unit_bags_pack_exactly(self):
        recs = [Recording(i, i % 2, [[i]]) for i in range(25)]
        corpus = corpus_of(2, recs, constant_segments([i % 2 for i in range(25)]))
        batches = plan_epoch_stage1(corpus, 10, seed=7)
        assert [b.size for b in batches] == [10, 10, 5]

    def test_oversized_bag_rejected(self):
        corpus = _one_recording_corpus([[i] for i in range(80)], 80)
        with pytest.raises(BagTooLarge):
            plan_epoch_stage1(corpus, 64, seed=8)

    def test_deterministic(self):
        corpus = self._corpus()
        a = plan_epoch_stage1(corpus, 16, seed=9)
        b = plan_epoch_stage1(corpus, 16, seed=9)
        assert _bags(a) == _bags(b)

    def test_excludes_heldout_recordings(self):
        corpus = assign_heldout_split(self._corpus(), 0.3, seed=1)
        batches = plan_epoch_stage1(corpus, 16, seed=10)
        seen = {b.recording_id for batch in batches for b in batch.bags}
        heldout = {r.recording_id for r in heldout_recordings(corpus)}
        assert not seen & heldout
        assert seen == {r.recording_id for r in train_recordings(corpus)}

    def test_batch_arrays_are_the_bags(self):
        # training reads the arrays; the bags view must describe the same rows
        plan = plan_epoch_stage1(self._corpus(), 16, seed=11)
        for batch in plan:
            bags = batch.bags
            assert batch.segment_ids.dtype == batch.offsets.dtype == batch.targets.dtype == np.int64
            assert batch.offsets.tolist() == np.cumsum([0] + [b.size for b in bags[:-1]]).tolist()
            assert batch.segment_ids.tolist() == [sid for b in bags for sid in b.segment_ids]
            assert batch.targets.tolist() == [b.target for b in bags]
            assert batch.recording_ids.tolist() == [b.recording_id for b in bags]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_coverage_property(self, seed):
        corpus = generate_corpus(SynthConfig(
            n_speakers=4, recordings_per_speaker=3, segments_per_recording=(2, 6),
            frames_per_segment=(1, 3), seed=seed))
        batches = plan_epoch_stage1(corpus, 12, seed=seed)
        seen = [b.recording_id for batch in batches for b in batch.bags]
        assert sorted(seen) == sorted(r.recording_id for r in corpus.recordings)
        for batch in batches:
            ids = [s for b in batch.bags for s in b.segment_ids]
            assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("target", [7, 11, 16, 40])
    def test_packing_matches_resummed_reference(self, seed, target):
        # Re-pack the planned bags, in plan order, with the greedy rule
        # evaluated on the batch size re-summed at every step.
        corpus = generate_corpus(SynthConfig(
            n_speakers=6, recordings_per_speaker=5, segments_per_recording=(2, 6),
            frames_per_segment=(1, 3), seed=seed))
        plan = _bags(plan_epoch_stage1(corpus, target, seed=seed))
        reference, current = [], []
        for bag in [bag for batch in plan for bag in batch]:
            size = sum(b.size for b in current)
            if current and size + bag.size > target and size >= 0.9 * target:
                reference.append(current)
                current = []
            current.append(bag)
        if current:
            reference.append(current)
        assert plan == reference

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 2**64 - 1), st.integers(7, 64),
           st.sampled_from([None, "baseline", "pyannote-like"]), st.sampled_from([0.0, 0.3]))
    def test_matches_bag_by_bag_reference(self, corpus_seed, seed, target, preset, heldout):
        corpus = _small_corpus(corpus_seed, preset, heldout)
        assert _outcome(plan_epoch_stage1, _bags, corpus, target, seed) == \
            _outcome(reference_stage1, list, corpus, target, seed)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 2**32 - 1), st.integers(7, 64),
           st.lists(st.tuples(st.integers(0, 11), st.sampled_from(["no clusters", "empty", "large"])),
                    min_size=1, max_size=4))
    def test_first_bad_recording_in_shuffled_order_raises(self, corpus_seed, seed, target, damage):
        # several bad recordings: the array planner must name the same one, with
        # EmptyCluster before BagTooLarge inside a recording
        recordings = [replace(r, clusters=[list(c) for c in r.clusters])
                      for r in _small_corpus(corpus_seed).recordings]
        for idx, kind in damage:
            rec = recordings[idx]
            if kind == "no clusters":
                rec.clusters = []
            elif kind == "empty":
                rec.clusters.insert(seed % (len(rec.clusters) + 1), [])
            else:  # singleton clusters, past 1.1x the target
                rec.clusters += [[sid] for sid in range(int(1.1 * target) + 1)]
        corpus = corpus_of(4, recordings, constant_segments([0]))
        got = _outcome(plan_epoch_stage1, _bags, corpus, target, seed)
        assert got == _outcome(reference_stage1, list, corpus, target, seed)
        assert got[0] in (EmptyCluster, BagTooLarge)


class TestPlanEpochStage2:
    SELECTED = np.column_stack([np.arange(1000), np.arange(1000) % 4])

    def test_chunking(self):
        batches = plan_epoch_stage2(self.SELECTED, 100, seed=1)
        assert len(batches) == 10
        assert all(b.size == 100 for b in batches)

    def test_epoch_covers_selection_once(self):
        batches = plan_epoch_stage2(self.SELECTED, 64, seed=2)
        seen = sorted(sid for b in batches for sid in b.segment_ids.tolist())
        assert seen == self.SELECTED[:, 0].tolist()

    def test_unknown_mixing_counts(self):
        pool = np.arange(5000, 5040)
        batches = plan_epoch_stage2(self.SELECTED, 100, seed=3, unknown_pool=pool, mix_fraction=0.1)
        for batch in batches[:-1]:
            unknown = ~batch.known
            assert unknown.sum() == 10
            assert batch.size == 100
            assert (batch.labels[unknown] == UNKNOWN).all()
            assert set(batch.segment_ids[unknown].tolist()) <= set(pool.tolist())
            assert batch.known.sum() >= 1

    def test_deterministic(self):
        a = plan_epoch_stage2(self.SELECTED, 64, seed=6, unknown_pool=np.array([1, 2, 3]), mix_fraction=0.05)
        b = plan_epoch_stage2(self.SELECTED, 64, seed=6, unknown_pool=np.array([1, 2, 3]), mix_fraction=0.05)
        assert _rows(a) == _rows(b)

    def test_batch_dtypes(self):
        [batch] = plan_epoch_stage2(self.SELECTED[:50], 64, seed=7, unknown_pool=np.array([1, 2]), mix_fraction=0.1)
        assert batch.segment_ids.dtype == batch.labels.dtype == np.int64
        assert batch.known.dtype == bool

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(7, 64), st.integers(0, 300), st.integers(0, 30),
           st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5]))
    def test_matches_row_by_row_reference(self, seed, target, n_selected, pool_size, mix):
        draw = np.random.default_rng(seed % 2**32)
        selected = list(zip(draw.permutation(n_selected * 3)[:n_selected].tolist(),
                            draw.integers(0, 40, n_selected).tolist()))
        pool = draw.integers(10_000, 10_100, pool_size).tolist() or None
        planned = plan_epoch_stage2(np.array(selected, dtype=np.int64).reshape(-1, 2), target, seed,
                                    unknown_pool=None if pool is None else np.array(pool), mix_fraction=mix)
        assert _rows(planned) == reference_stage2(selected, target, seed, unknown_pool=pool, mix_fraction=mix)
