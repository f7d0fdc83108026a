import numpy as np
import pytest

from weaksv.corpus import NOISE, validate_corpus
from weaksv.diarize import DiarConfig, PRESETS, apply_diarization, simulate_diarization
from weaksv.errors import EmptyRecording
from weaksv.rng import Rng


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
