import numpy as np
import pytest

from weaksv.corpus import Corpus, NOISE, Recording, Segment, UNKNOWN
from weaksv.synth import SynthConfig, generate_corpus


def make_segment(sid, rec_id, cid, oracle, value=0.5, n_frames=3, feat_dim=4):
    feats = np.full((n_frames, feat_dim), value, dtype=np.float32)
    return Segment(sid, rec_id, cid, feats, oracle)


@pytest.fixture
def tiny_corpus():
    """Two speakers, two recordings each, with one unknown and one noise segment."""
    segments = {
        0: make_segment(0, 0, 0, 0, 0.1),
        1: make_segment(1, 0, 0, 0, 0.2),
        2: make_segment(2, 0, 1, 1, 0.3),
        3: make_segment(3, 1, 0, 0, 0.4),
        4: make_segment(4, 1, 1, NOISE, 0.5),
        5: make_segment(5, 2, 0, 1, 0.6),
        6: make_segment(6, 2, 1, UNKNOWN, 0.7),
        7: make_segment(7, 3, 0, 1, 0.8),
        8: make_segment(8, 3, 1, 0, 0.9),
    }
    recordings = [
        Recording(0, 0, [[0, 1], [2]]),
        Recording(1, 0, [[3], [4]]),
        Recording(2, 1, [[5], [6]]),
        Recording(3, 1, [[7], [8]]),
    ]
    return Corpus(2, recordings, segments, unknown_pool_present=True)


@pytest.fixture(scope="session")
def small_corpus():
    """A small but realistic generated corpus shared by slower tests."""
    cfg = SynthConfig(n_speakers=8, recordings_per_speaker=5, unknown_speaker_count=3, seed=555)
    return generate_corpus(cfg)


# ---------------------------------------------------------------------------
# Finite-difference oracle for weaksv.selfcheck.composite_loss
# ---------------------------------------------------------------------------


def central_difference(fn, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Independent numeric gradient oracle: symmetric differences per coordinate."""
    out = np.empty_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        out[i] = (fn(up) - fn(down)) / (2.0 * h)
    return out


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Coordinatewise |a-b| / max(|a|, |b|, floor); the floor keeps
    near-zero coordinates (e.g. unselected MAX rows) from dividing by noise."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))
