import io
import struct
from pathlib import Path

import numpy as np
import pytest

from weaksv.corpus import FEAT_MAGIC, FEAT_VERSION, Corpus, NOISE, Recording, Segments, UNKNOWN, save_manifest
from weaksv.synth import SynthConfig, generate_corpus


def segment_means(features):
    """Reference pooling: each segment's frames averaged on their own in float64 (0 for a segment without frames)."""
    return np.stack([f.astype(np.float64).mean(axis=0) if len(f) else np.zeros(f.shape[1]) for f in features])


def make_segments(features, oracle):
    """A segment table from per-segment (n_frames, feat_dim) arrays; ids follow list order.

    The means are segment_means(features); the frames themselves are not
    kept (write_manifest stores them).
    """
    bounds = np.concatenate([[0], np.cumsum([f.shape[0] for f in features])]).astype(np.int64)
    means = segment_means(features)
    means.flags.writeable = False
    return Segments(means, bounds, np.array(oracle, dtype=np.int64))


def feat_bytes(frames):
    """corpus.feat for a (total_frames, feat_dim) frame matrix, built from the format: header, then float32 rows."""
    return (FEAT_MAGIC + struct.pack("<III", FEAT_VERSION, frames.shape[1], 0)
            + np.ascontiguousarray(frames, dtype="<f4").tobytes())


def feat_frames(raw):
    """The frame matrix stored in corpus.feat bytes raw (a read-only view)."""
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(-1, struct.unpack("<I", raw[8:12])[0])


def write_manifest(corpus, frames, directory):
    """save_manifest(corpus, directory), plus a corpus.feat that holds the frame matrix frames."""
    save_manifest(corpus, directory)
    (Path(directory) / "corpus.feat").write_bytes(feat_bytes(frames))


# corpus.idx's int64 arrays, in file order after its 40-byte header
INDEX_ARRAYS = ("ids", "targets", "heldout", "n_clusters", "sizes", "members", "oracle", "n_frames")


def edit_index(path, edit):
    """Read corpus.idx at path into {name: writable int64 array}, let edit change the arrays (in place or by
    replacing them in the dict), and write them back under a header that counts them. Built from the format."""
    raw = Path(path).read_bytes()
    r, c, m, s = struct.unpack_from("<4Q", raw, 8)
    body = np.frombuffer(raw, dtype="<i8", offset=40).copy()
    arrays = dict(zip(INDEX_ARRAYS, np.split(body, np.cumsum([r, r, r, r, c, m, s]))))
    edit(arrays)
    counts = [len(arrays[name]) for name in ("ids", "sizes", "members", "oracle")]
    Path(path).write_bytes(b"WIDX" + struct.pack("<I4Q", 1, *counts)
                           + b"".join(np.asarray(arrays[name], dtype="<i8").tobytes() for name in INDEX_ARRAYS))


def train_recordings(corpus):
    """corpus's recordings that are not held out, in table order."""
    return [r for r in corpus.recordings if not r.heldout]


def heldout_recordings(corpus):
    """corpus's held-out recordings, in table order."""
    return [r for r in corpus.recordings if r.heldout]


def generate_with_frames(cfg):
    """generate_corpus(cfg), and the frame matrix it wrote as corpus.feat."""
    feat = io.BytesIO()
    corpus = generate_corpus(cfg, feat)
    return corpus, feat_frames(feat.getvalue())


def constant_features(values, n_frames=3, feat_dim=4):
    """One (n_frames, feat_dim) float32 segment per value, filled with it."""
    return [np.full((n_frames, feat_dim), v, dtype=np.float32) for v in values]


def constant_segments(oracle, values=None, n_frames=3, feat_dim=4):
    """One (n_frames, feat_dim) float32 segment per oracle label, filled with its value."""
    values = [0.5] * len(oracle) if values is None else values
    return make_segments(constant_features(values, n_frames, feat_dim), oracle)


TINY_VALUES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


@pytest.fixture
def tiny_corpus():
    """Two speakers, two recordings each, with one unknown and one noise segment."""
    segments = constant_segments([0, 0, 1, 0, NOISE, 1, UNKNOWN, 1, 0], TINY_VALUES)
    recordings = [
        Recording(0, 0, [[0, 1], [2]]),
        Recording(1, 0, [[3], [4]]),
        Recording(2, 1, [[5], [6]]),
        Recording(3, 1, [[7], [8]]),
    ]
    return Corpus(2, recordings, segments)


@pytest.fixture
def tiny_frames():
    """tiny_corpus's frame matrix: three rows of four per segment, filled with its value."""
    return np.concatenate(constant_features(TINY_VALUES))


@pytest.fixture(scope="session")
def small_generated():
    """A small but realistic generated corpus shared by slower tests, and its frame matrix."""
    cfg = SynthConfig(n_speakers=8, recordings_per_speaker=5, unknown_speaker_count=3, seed=555)
    return generate_with_frames(cfg)


@pytest.fixture(scope="session")
def small_corpus(small_generated):
    return small_generated[0]


@pytest.fixture(scope="session")
def small_frames(small_generated):
    return small_generated[1]


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
