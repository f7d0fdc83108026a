import io
import struct
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from weaksv.corpus import FEAT_MAGIC, FEAT_VERSION, ClusterTable, Corpus, NOISE, Recording, Segments, UNKNOWN
from weaksv.embedder import unflatten_params
from weaksv.synth import SynthConfig, generate_corpus
from weaksv.trainer import loss_and_grads, recording_batch_loss, segment_batch_loss


def segment_means(features):
    """Reference pooling: each segment's frames averaged on their own in float64 (0 for a segment without frames)."""
    return np.stack([f.astype(np.float64).mean(axis=0) if len(f) else np.zeros(f.shape[1]) for f in features])


def make_segments(features, oracle):
    """A segment table from per-segment (n_frames, feat_dim) arrays; ids follow list order.

    The means are segment_means(features), and n_frames the arrays' row
    counts; the frames themselves are not kept.
    """
    means = segment_means(features)
    means.flags.writeable = False
    return Segments(means, np.array([f.shape[0] for f in features], dtype=np.int64), np.array(oracle, dtype=np.int64))


def frame_bounds(segments):
    """Each segment's first row in the frame matrix, then the row count: segment i is rows b[i]:b[i+1]."""
    return np.concatenate([[0], np.cumsum(segments.n_frames)]).astype(np.int64)


def corpus_of(n_speakers, recordings, segments):
    """A Corpus whose cluster table holds the Recording list recordings, in list order."""
    rows = np.array([(r.recording_id, r.target, r.heldout, len(r.clusters)) for r in recordings],
                    dtype=np.int64).reshape(-1, 4)
    clusters = [cluster for r in recordings for cluster in r.clusters]
    sizes = np.array([len(cluster) for cluster in clusters], dtype=np.int64)
    members = np.fromiter(chain.from_iterable(clusters), np.int64, int(sizes.sum()))
    return Corpus(n_speakers, ClusterTable(rows[:, 0], rows[:, 1], rows[:, 2] == 1, rows[:, 3], sizes, members),
                  segments)


def feat_bytes(frames):
    """corpus.feat for a (total_frames, feat_dim) frame matrix, built from the format: header, then float32 rows."""
    return (FEAT_MAGIC + struct.pack("<III", FEAT_VERSION, frames.shape[1], 0)
            + np.ascontiguousarray(frames, dtype="<f4").tobytes())


def feat_frames(raw):
    """The frame matrix stored in corpus.feat bytes raw (a read-only view)."""
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(-1, struct.unpack("<I", raw[8:12])[0])


# corpus.idx's int64 arrays, in file order after its 48-byte header; the float64 means follow them
INDEX_ARRAYS = ("ids", "targets", "heldout", "n_clusters", "sizes", "members", "oracle", "n_frames")


def edit_index(path, edit):
    """Read corpus.idx at path into {name: writable array} (the int64 INDEX_ARRAYS, and "means" as an (S, D)
    float64 matrix), let edit change them (in place or by replacing them in the dict), and write them back
    under a header that counts them. Built from the format."""
    raw = Path(path).read_bytes()
    r, c, m, s, d = struct.unpack_from("<5Q", raw, 8)
    n = 4 * r + c + m + 2 * s
    body = np.frombuffer(raw, dtype="<i8", offset=48, count=n).copy()
    arrays = dict(zip(INDEX_ARRAYS, np.split(body, np.cumsum([r, r, r, r, c, m, s]))))
    arrays["means"] = np.frombuffer(raw, dtype="<f8", offset=48 + 8 * n).reshape(s, d).copy()
    edit(arrays)
    counts = [len(arrays[name]) for name in ("ids", "sizes", "members", "oracle")]
    Path(path).write_bytes(b"WIDX" + struct.pack("<I5Q", 2, *counts, arrays["means"].shape[1])
                           + b"".join(np.asarray(arrays[name], dtype="<i8").tobytes() for name in INDEX_ARRAYS)
                           + np.asarray(arrays["means"], dtype="<f8").tobytes())


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


def tiny_recordings():
    """tiny_corpus's recordings, as a list to edit."""
    return [
        Recording(0, 0, [[0, 1], [2]]),
        Recording(1, 0, [[3], [4]]),
        Recording(2, 1, [[5], [6]]),
        Recording(3, 1, [[7], [8]]),
    ]


@pytest.fixture
def tiny_corpus():
    """Two speakers, two recordings each, with one unknown and one noise segment."""
    segments = constant_segments([0, 0, 1, 0, NOISE, 1, UNKNOWN, 1, 0], TINY_VALUES)
    return corpus_of(2, tiny_recordings(), segments)


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
# One training step at a flat parameter vector, and its finite-difference oracle
# ---------------------------------------------------------------------------


def bag_map(sizes):
    """The stage-1 planner's bag map for consecutive bags of these row counts, as aggregate's keyword arguments."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return {"offsets": np.cumsum(sizes) - sizes, "sizes": sizes, "bag_of_row": np.repeat(np.arange(sizes.size), sizes)}


def composite_loss(theta, cfg, n_speakers, xbar, path, *, target=0, s=30.0, m=0.1,
                   tau=0.5, labels=None, known_mask=None, extra_col=None):
    """(loss, flat analytic gradient) of one training step at parameters theta.

    Runs the trainer's own step (loss_and_grads with a stage's batch loss).
    path selects the batch loss: "max" or "lse" (stage 1, the rows form one
    bag of recording label target), "stage2" (every row labelled target)
    or "extended" (labels with known_mask; the unknown class). For the
    extended path, extra_col (the detached appended logit column) must be
    precomputed at the base point so differencing respects the
    stop-gradient semantics.
    """
    n_rows = len(xbar)
    if path in ("max", "lse"):
        batch_loss = recording_batch_loss(path, s, np.array([target]), **bag_map([n_rows]))
    elif path == "stage2":
        batch_loss = segment_batch_loss(s, np.full(n_rows, target), np.ones(n_rows, dtype=bool))
    elif path == "extended":
        batch_loss = segment_batch_loss(s, labels, known_mask,
                                        None if extra_col is None else np.asarray(extra_col))
    else:
        raise ValueError(path)
    grad = np.empty_like(theta)
    loss = loss_and_grads(unflatten_params(theta, cfg, n_speakers), xbar, batch_loss, m, tau,
                          unflatten_params(grad, cfg, n_speakers))
    return loss, grad


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
