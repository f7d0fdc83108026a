import numpy as np
import pytest

from weaksv.corpus import Corpus, NOISE, Recording, Segment, UNKNOWN
from weaksv.embedder import EmbedderConfig, EmbedderParams, backward_pooled, forward_pooled
from weaksv.losses import (
    aggregate,
    extend_logits_unknown,
    extended_ce_loss,
    segment_aam_loss,
    weak_recording_loss,
)
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
# Composite losses through the embedder, plus a finite-difference oracle
# ---------------------------------------------------------------------------


def flatten_model(params: EmbedderParams, prototypes: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [params.W1.ravel(), params.b1, params.W2.ravel(), params.b2, prototypes.ravel()]
    )


def unflatten_model(theta: np.ndarray, cfg: EmbedderConfig, n_speakers: int):
    sizes = [
        cfg.hidden_dim * cfg.feat_dim,
        cfg.hidden_dim,
        cfg.emb_dim * cfg.hidden_dim,
        cfg.emb_dim,
        n_speakers * cfg.emb_dim,
    ]
    parts = np.split(np.asarray(theta, dtype=np.float64), np.cumsum(sizes)[:-1])
    params = EmbedderParams(
        parts[0].reshape(cfg.hidden_dim, cfg.feat_dim),
        parts[1].copy(),
        parts[2].reshape(cfg.emb_dim, cfg.hidden_dim),
        parts[3].copy(),
    )
    return params, parts[4].reshape(n_speakers, cfg.emb_dim)


def composite_loss(theta, cfg, n_speakers, xbar, path, *, target=0, s=30.0, m=0.1,
                   tau=0.5, labels=None, known_mask=None, extra_col=None):
    """(loss, analytic gradient) of a full loss path through the embedder.

    For the extended path, extra_col (the detached appended logit column)
    must be precomputed at the base point so differencing respects the
    stop-gradient semantics.
    """
    params, prototypes = unflatten_model(theta, cfg, n_speakers)
    emb, cache = forward_pooled(xbar, params)
    cos = emb @ prototypes.T
    n_rows = cos.shape[0]
    if path in ("max", "lse"):
        agg = aggregate(cos, path, tau)
        loss, d_rec = weak_recording_loss(agg.c_rec, target, s, m)
        d_cos = agg.backward(d_rec)
    elif path == "stage2":
        losses, d_cos = segment_aam_loss(cos, np.full(n_rows, target), s, m)
        loss = float(losses.mean())
        d_cos /= n_rows
    elif path == "extended":
        if extra_col is None:
            ext = extend_logits_unknown(s * cos, labels, known_mask)
        else:
            ext = np.concatenate([s * cos, np.asarray(extra_col)[:, None]], axis=1)
        losses, d_logits = extended_ce_loss(ext, labels, known_mask, s, m)
        loss = float(losses.mean())
        d_cos = s * d_logits / n_rows
    else:
        raise ValueError(path)
    grads = backward_pooled(d_cos @ prototypes, cache, params)
    grads["P"] = d_cos.T @ emb
    grad = np.concatenate(
        [grads["W1"].ravel(), grads["b1"], grads["W2"].ravel(), grads["b2"], grads["P"].ravel()]
    )
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
