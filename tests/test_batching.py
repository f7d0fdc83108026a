import pytest
from hypothesis import given, settings, strategies as st

from weaksv.batching import BagBatch, build_bag, plan_epoch_stage1, plan_epoch_stage2
from weaksv.corpus import Recording, UNKNOWN
from weaksv.errors import BagTooLarge, EmptyCluster
from weaksv.rng import Rng
from weaksv.synth import SynthConfig, generate_corpus


class TestBuildBag:
    def test_one_segment_per_cluster(self):
        rec = Recording(0, 1, [[1, 2, 3], [4], [5, 6]])
        bag = build_bag(rec, Rng.from_seed(1))
        assert bag.size == 3
        assert bag.segment_ids[0] in (1, 2, 3)
        assert bag.segment_ids[1] == 4
        assert bag.segment_ids[2] in (5, 6)

    def test_single_cluster_recording(self):
        bag = build_bag(Recording(0, 0, [[7, 8]]), Rng.from_seed(2))
        assert bag.size == 1

    def test_uniform_sampling_within_cluster(self):
        # binomial 99% interval frozen at 500 +- 60 draws
        rec = Recording(0, 0, [[10, 11]])
        rng = Rng.from_seed(3)
        hits = sum(build_bag(rec, rng.spawn(i)).segment_ids[0] == 10 for i in range(1000))
        assert 440 <= hits <= 560

    def test_empty_cluster_rejected(self):
        with pytest.raises(EmptyCluster):
            build_bag(Recording(0, 0, [[1], []]), Rng.from_seed(4))


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
        from weaksv.corpus import Corpus
        from conftest import constant_segments

        corpus = Corpus(2, recs, constant_segments([i % 2 for i in range(25)]))
        batches = plan_epoch_stage1(corpus, 10, seed=7)
        assert [b.size for b in batches] == [10, 10, 5]

    def test_oversized_bag_rejected(self):
        rec = Recording(0, 0, [[i] for i in range(80)])
        from weaksv.corpus import Corpus
        from conftest import constant_segments

        corpus = Corpus(1, [rec], constant_segments([0] * 80))
        with pytest.raises(BagTooLarge):
            plan_epoch_stage1(corpus, 64, seed=8)

    def test_deterministic(self):
        corpus = self._corpus()
        a = plan_epoch_stage1(corpus, 16, seed=9)
        b = plan_epoch_stage1(corpus, 16, seed=9)
        assert [[bag.segment_ids for bag in batch.bags] for batch in a] == \
               [[bag.segment_ids for bag in batch.bags] for batch in b]

    def test_excludes_heldout_recordings(self):
        from weaksv.corpus import assign_heldout_split

        corpus = assign_heldout_split(self._corpus(), 0.3, seed=1)
        batches = plan_epoch_stage1(corpus, 16, seed=10)
        seen = {b.recording_id for batch in batches for b in batch.bags}
        heldout = {r.recording_id for r in corpus.heldout_recordings()}
        assert not seen & heldout
        assert seen == {r.recording_id for r in corpus.train_recordings()}

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
        # evaluated on BagBatch.size re-summed at every step.
        corpus = generate_corpus(SynthConfig(
            n_speakers=6, recordings_per_speaker=5, segments_per_recording=(2, 6),
            frames_per_segment=(1, 3), seed=seed))
        plan = plan_epoch_stage1(corpus, target, seed=seed)
        reference: list[BagBatch] = []
        current = BagBatch()
        for bag in [bag for batch in plan for bag in batch.bags]:
            if current.bags and current.size + bag.size > target and current.size >= 0.9 * target:
                reference.append(current)
                current = BagBatch()
            current.bags.append(bag)
        if current.bags:
            reference.append(current)
        assert [batch.bags for batch in plan] == [batch.bags for batch in reference]


class TestPlanEpochStage2:
    SELECTED = [(i, i % 4) for i in range(1000)]

    def test_chunking(self):
        batches = plan_epoch_stage2(self.SELECTED, 100, seed=1)
        assert len(batches) == 10
        assert all(b.size == 100 for b in batches)

    def test_epoch_covers_selection_once(self):
        batches = plan_epoch_stage2(self.SELECTED, 64, seed=2)
        seen = sorted(r.segment_id for b in batches for r in b.rows)
        assert seen == [i for i, _ in self.SELECTED]

    def test_unknown_mixing_counts(self):
        pool = list(range(5000, 5040))
        batches = plan_epoch_stage2(self.SELECTED, 100, seed=3, unknown_pool=pool, mix_fraction=0.1)
        for batch in batches[:-1]:
            unknown = [r for r in batch.rows if not r.known]
            assert len(unknown) == 10
            assert len(batch.rows) == 100
            assert all(r.label == UNKNOWN and r.segment_id in pool for r in unknown)
            assert sum(r.known for r in batch.rows) >= 1

    def test_deterministic(self):
        a = plan_epoch_stage2(self.SELECTED, 64, seed=6, unknown_pool=[1, 2, 3], mix_fraction=0.05)
        b = plan_epoch_stage2(self.SELECTED, 64, seed=6, unknown_pool=[1, 2, 3], mix_fraction=0.05)
        assert [[(r.segment_id, r.known) for r in x.rows] for x in a] == \
               [[(r.segment_id, r.known) for r in x.rows] for x in b]
