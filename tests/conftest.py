import numpy as np
import pytest

from weaksv.corpus import Corpus, NOISE, Recording, Segments, UNKNOWN
from weaksv.synth import SynthConfig, generate_corpus


def make_segments(features, oracle):
    """A segment table from per-segment (n_frames, feat_dim) arrays; ids follow list order."""
    bounds = np.concatenate([[0], np.cumsum([f.shape[0] for f in features])]).astype(np.int64)
    return Segments(np.concatenate(features), bounds, np.array(oracle, dtype=np.int64))


def segment_features(segments, sid):
    """Segment sid's rows of the frame matrix (a view)."""
    return segments.frames[segments.bounds[sid]:segments.bounds[sid + 1]]


def constant_segments(oracle, values=None, n_frames=3, feat_dim=4):
    """One (n_frames, feat_dim) float32 segment per oracle label, filled with its value."""
    values = [0.5] * len(oracle) if values is None else values
    return make_segments([np.full((n_frames, feat_dim), v, dtype=np.float32) for v in values], oracle)


@pytest.fixture
def tiny_corpus():
    """Two speakers, two recordings each, with one unknown and one noise segment."""
    segments = constant_segments([0, 0, 1, 0, NOISE, 1, UNKNOWN, 1, 0],
                                 [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    recordings = [
        Recording(0, 0, [[0, 1], [2]]),
        Recording(1, 0, [[3], [4]]),
        Recording(2, 1, [[5], [6]]),
        Recording(3, 1, [[7], [8]]),
    ]
    return Corpus(2, recordings, segments)


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
