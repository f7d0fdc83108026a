import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaksv.corpus import NOISE, Corpus, Recording, validate_corpus
from weaksv.diarize import DiarConfig, PRESETS, apply_diarization
from weaksv.errors import EmptyRecording
from weaksv.rng import Rng
from weaksv.synth import SynthConfig, generate_corpus


# ---------------------------------------------------------------------------
# Reference diarizer: one recording and one draw at a time
# ---------------------------------------------------------------------------


def simulate_diarization(segment_ids, oracle_of, cfg, rng):
    """Cluster one recording's segments.

    oracle_of maps segment_id -> oracle label; all speakers outside the
    known set share one UNKNOWN label and are clustered as one pseudo
    speaker, as are NOISE segments when kept.
    """
    if not segment_ids:
        raise EmptyRecording("recording has no segments")
    kept = [s for s in segment_ids if not (cfg.drop_noise and oracle_of[s] == NOISE)]
    if not kept:
        raise EmptyRecording("all segments dropped as noise")

    by_label = {}
    for sid in kept:
        by_label.setdefault(oracle_of[sid], []).append(sid)

    clusters = []
    for label in sorted(by_label):
        members = list(by_label[label])
        base = int(cfg.split_factor)
        frac = cfg.split_factor - base
        k = base + (1 if rng.float() < frac else 0)
        k = max(1, min(k, len(members)))
        rng.shuffle(members)
        # first k segments seed the clusters so none comes out empty
        parts = [[members[i]] for i in range(k)]
        for sid in members[k:]:
            parts[rng.randint(k)].append(sid)
        clusters.extend(parts)

    _inject_impurity(clusters, oracle_of, cfg.purity, rng)

    if cfg.max_clusters > 0:
        while len(clusters) > cfg.max_clusters:
            order = sorted(range(len(clusters)), key=lambda i: (len(clusters[i]), i))
            a, b = sorted(order[:2])
            clusters[a] = clusters[a] + clusters[b]
            del clusters[b]
    return clusters


def _inject_impurity(clusters, oracle_of, purity, rng):
    """Swap ~(1 - purity) of the segments pairwise across clusters.

    Partners are drawn from different oracle labels so every executed
    swap actually pollutes both clusters; a leftover marked segment with
    no cross-label partner stays put.
    """
    if purity >= 1.0 or len(clusters) < 2:
        return
    marked_by_label = {}
    for ci, cluster in enumerate(clusters):
        for pos in range(len(cluster)):
            if rng.float() < 1.0 - purity:
                lab = oracle_of[cluster[pos]]
                marked_by_label.setdefault(lab, []).append((ci, pos))
    for slots in marked_by_label.values():
        rng.shuffle(slots)
    while True:
        nonempty = sorted((lab for lab, v in marked_by_label.items() if v),
                          key=lambda lab: (-len(marked_by_label[lab]), lab))
        if len(nonempty) < 2:
            break
        (ca, pa) = marked_by_label[nonempty[0]].pop()
        (cb, pb) = marked_by_label[nonempty[1]].pop()
        clusters[ca][pa], clusters[cb][pb] = clusters[cb][pb], clusters[ca][pa]


def reference_apply(corpus, cfg):
    """apply_diarization as a loop over recordings, each clustered on its own stream."""
    oracle_of = dict(enumerate(corpus.segments.oracle.tolist()))
    recordings = [
        Recording(rec.recording_id, rec.target,
                  simulate_diarization(rec.segment_ids(), oracle_of, cfg,
                                       Rng.from_seed(cfg.seed, "diar", rec.recording_id)),
                  rec.heldout)
        for rec in corpus.recordings]
    return Corpus(corpus.n_speakers, recordings, corpus.segments)


def _modal_shares(clusters, oracle):
    """Per cluster, the share of its segments that carry its most common oracle label."""
    shares = []
    for cluster in clusters:
        labels = [oracle[sid] for sid in cluster]
        shares.append(max(labels.count(lab) for lab in labels) / len(labels))
    return shares


def _recording(n_speakers, segs_per_speaker, base=0):
    oracle, sids = {}, []
    for spk in range(n_speakers):
        for k in range(segs_per_speaker):
            sid = base + spk * 1000 + k
            oracle[sid] = spk
            sids.append(sid)
    return sids, oracle


def test_identity_diarization():
    sids, oracle = _recording(3, 4)
    clusters = simulate_diarization(sids, oracle, DiarConfig(purity=1.0, split_factor=1.0), Rng.from_seed(1))
    assert len(clusters) == 3
    assert _modal_shares(clusters, oracle) == [1.0] * 3


def test_partition_preserves_segments():
    sids, oracle = _recording(4, 5)
    clusters = simulate_diarization(sids, oracle, DiarConfig(purity=0.7, split_factor=2.0), Rng.from_seed(2))
    flat = [s for c in clusters for s in c]
    assert sorted(flat) == sorted(sids)


def test_split_factor_expectation():
    # Monte-Carlo estimate over many recordings, frozen from the pilot
    rng = Rng.from_seed(99)
    total_clusters = total_speakers = 0
    for rec in range(300):
        sids, oracle = _recording(3, 10, base=rec * 100_000)
        clusters = simulate_diarization(
            sids, oracle, DiarConfig(purity=1.0, split_factor=2.0), rng.spawn(rec))
        total_clusters += len(clusters)
        total_speakers += 3
    assert 1.8 <= total_clusters / total_speakers <= 2.2


def test_measured_purity_tracks_config():
    # Monte-Carlo over >= 1000 clusters, window frozen from the pilot
    rng = Rng.from_seed(99)
    purities = []
    for rec in range(400):
        sids, oracle = _recording(4, 16, base=rec * 100_000)
        clusters = simulate_diarization(
            sids, oracle, DiarConfig(purity=0.8, split_factor=2.0), rng.spawn(rec))
        purities += _modal_shares(clusters, oracle)
    assert len(purities) >= 1000
    assert 0.75 <= float(np.mean(purities)) <= 0.85


def test_max_clusters_cap():
    sids, oracle = _recording(6, 3)
    clusters = simulate_diarization(
        sids, oracle, DiarConfig(purity=1.0, split_factor=1.0, max_clusters=4), Rng.from_seed(5))
    assert len(clusters) == 4
    assert sorted(s for c in clusters for s in c) == sorted(sids)


def test_overclustering_lower_bound():
    # baseline regime: cluster count never drops below the speaker count
    rng = Rng.from_seed(31)
    for rec in range(50):
        sids, oracle = _recording(3, 6, base=rec * 100_000)
        clusters = simulate_diarization(
            sids, oracle, DiarConfig(purity=0.85, split_factor=2.0), rng.spawn(rec))
        assert len(clusters) >= 3


def test_drop_noise_removes_noise_segments():
    sids, oracle = _recording(2, 4)
    noise_ids = [900, 901]
    for sid in noise_ids:
        oracle[sid] = NOISE
    clusters = simulate_diarization(
        sids + noise_ids, oracle, DiarConfig(purity=1.0, split_factor=1.0, drop_noise=True),
        Rng.from_seed(6))
    flat = [s for c in clusters for s in c]
    assert sorted(flat) == sorted(sids)


def test_noise_kept_as_pseudo_speaker_by_default():
    sids, oracle = _recording(2, 4)
    oracle[900] = NOISE
    clusters = simulate_diarization(
        sids + [900], oracle, DiarConfig(purity=1.0, split_factor=1.0), Rng.from_seed(7))
    flat = [s for c in clusters for s in c]
    assert 900 in flat


def test_empty_recording_rejected():
    with pytest.raises(EmptyRecording):
        simulate_diarization([], {}, DiarConfig(), Rng.from_seed(1))


def test_presets_shape():
    assert PRESETS["baseline"].drop_noise is False
    assert PRESETS["baseline"].split_factor > 1.0
    assert PRESETS["pyannote-like"].drop_noise is True
    assert PRESETS["pyannote-like"].max_clusters == 4
    assert PRESETS["pyannote-like"].purity > PRESETS["baseline"].purity


class TestApplyDiarization:
    def test_baseline_round_trip_valid(self, small_corpus):
        diarized = apply_diarization(small_corpus, PRESETS["baseline"])
        assert validate_corpus(diarized) == []
        # every original segment still clustered somewhere in its recording
        for rec_a, rec_b in zip(small_corpus.recordings, diarized.recordings):
            assert sorted(rec_a.segment_ids()) == sorted(rec_b.segment_ids())

    def test_drop_noise_orphans_only_noise(self, small_corpus):
        diarized = apply_diarization(small_corpus, PRESETS["pyannote-like"])
        assert validate_corpus(diarized) == []
        assert diarized.segments is small_corpus.segments
        clustered = {sid for rec in diarized.recordings for sid in rec.segment_ids()}
        orphans = set(range(len(diarized.segments))) - clustered
        assert orphans and all(diarized.segments.oracle[sid] == NOISE for sid in orphans)
        for rec_a, rec_b in zip(small_corpus.recordings, diarized.recordings):
            assert set(rec_b.segment_ids()) <= set(rec_a.segment_ids())

    def test_cap_respected(self, small_corpus):
        diarized = apply_diarization(small_corpus, PRESETS["pyannote-like"])
        assert max(len(r.clusters) for r in diarized.recordings) <= 4

    def test_deterministic(self, small_corpus):
        a = apply_diarization(small_corpus, PRESETS["baseline"])
        b = apply_diarization(small_corpus, PRESETS["baseline"])
        assert all(x.clusters == y.clusters for x, y in zip(a.recordings, b.recordings))


# ---------------------------------------------------------------------------
# Array diarizer against the reference loop
# ---------------------------------------------------------------------------


def _table(corpus):
    t = corpus.cluster_table()
    return [a.tolist() for a in (t.ids, t.targets, t.heldout, t.n_clusters, t.sizes, t.members)]


def _assert_matches_reference(corpus, cfg, again):
    """apply_diarization equals the reference on corpus, and again (with config again) on its own output."""
    got, want = apply_diarization(corpus, cfg), reference_apply(corpus, cfg)
    assert _table(got) == _table(want)
    assert got.segments is corpus.segments and got.n_speakers == corpus.n_speakers
    assert _table(apply_diarization(got, again)) == _table(reference_apply(want, again))


@functools.cache
def _generated(seed, noise):
    """A small generated corpus; noise segments make drop_noise matter."""
    return generate_corpus(SynthConfig(
        n_speakers=5, recordings_per_speaker=3, segments_per_recording=(1, 12), frames_per_segment=(1, 2),
        distractors_per_recording=(0, 3), unknown_speaker_count=2, noise_segment_prob=noise, seed=seed))


PURITIES, SPLIT_FACTORS = (1.0, 0.97, 0.5), (1.0, 1.2, 2.0, 3.5)


@pytest.mark.parametrize("case", range(len(PURITIES) * len(SPLIT_FACTORS)))
def test_every_listed_setting_matches_reference(case):
    # each purity with each split factor; max_clusters 0..4 and drop_noise both ways come round in turn
    cfg = DiarConfig(purity=PURITIES[case % 3], split_factor=SPLIT_FACTORS[case // 3], max_clusters=case % 5,
                     drop_noise=bool(case % 2), seed=case)
    _assert_matches_reference(_generated(case % 4, 0.3), cfg, replace(cfg, seed=case + 100))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.sampled_from([0.0, 0.1, 0.5]),
       st.one_of(st.sampled_from(PURITIES), st.floats(0.05, 1.0)),
       st.one_of(st.sampled_from(SPLIT_FACTORS), st.floats(1.0, 4.0)),
       st.integers(0, 4), st.booleans(), st.integers(0, 2**64 - 1), st.sampled_from(list(PRESETS.values())))
def test_matches_reference(corpus_seed, noise, purity, split_factor, max_clusters, drop_noise, seed, again):
    cfg = DiarConfig(purity, split_factor, max_clusters, drop_noise, seed)
    _assert_matches_reference(_generated(corpus_seed, noise), cfg, replace(again, seed=seed ^ 1))


def test_recording_without_segments_to_cluster_rejected(tiny_corpus):
    # tiny_corpus recording 1 holds segments 3 (speaker 0) and 4 (noise): make 3 noise too
    tiny_corpus.segments.oracle[3] = NOISE
    with pytest.raises(EmptyRecording, match="recording 1 "):
        apply_diarization(tiny_corpus, DiarConfig(drop_noise=True))
