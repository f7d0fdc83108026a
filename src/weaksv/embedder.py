"""Trainable embedding model: frame-mean pooling, a 2-layer network with
relu, L2-normalized output embeddings, and unit-norm speaker prototypes.

Every trainable array lives in one ordered name -> array mapping, in
PARAM_NAMES order: W1 (hidden, feat), b1, W2 (emb, hidden), b2 and the
prototypes P (n_speakers, emb). Training keeps the mapping as named views
of one flat vector (unflatten_params), so the SGD update runs once on the
whole vector; the same mapping feeds forward/backward, checkpoints and,
through flatten_params, the finite-difference gradient checks.

forward_pooled/backward_pooled are pure functions of (params, input); the
backward pass is exact analytic chain rule, including the normalization
Jacobian (I - e e^T)/||z||, and is verified against central finite
differences in the test suite.

Checkpoint format: header magic WMLC, u32 version, u32 feat_dim,
u32 hidden_dim, u32 emb_dim, u32 n_speakers, then all parameters as
little-endian float64 in PARAM_NAMES order, then the optimizer section
(magic OPTS, u64 step, u32 epoch, 32-byte config hash, velocities in the
same order) that training resumes from. Every checkpoint carries both;
a file of any other length is rejected as corrupt.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptArtifact, DegenerateEmbedding
from .fileio import atomic_write
from .rng import Rng

CKPT_MAGIC = b"WMLC"
CKPT_VERSION = 1
OPT_MAGIC = b"OPTS"
_HEADER = struct.Struct("<4sIIIII")
_OPT_HEADER = struct.Struct("<4sQI32s")

PARAM_NAMES = ("W1", "b1", "W2", "b2", "P")

_NORM_FLOOR = 1e-8


@dataclass(frozen=True)
class EmbedderConfig:
    feat_dim: int = 20
    hidden_dim: int = 64
    emb_dim: int = 32


def _param_shapes(cfg: EmbedderConfig, n_speakers: int) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in PARAM_NAMES order."""
    return {"W1": (cfg.hidden_dim, cfg.feat_dim), "b1": (cfg.hidden_dim,),
            "W2": (cfg.emb_dim, cfg.hidden_dim), "b2": (cfg.emb_dim,),
            "P": (n_speakers, cfg.emb_dim)}


def flatten_params(params: dict[str, np.ndarray]) -> np.ndarray:
    """All parameters (or gradients) as one float64 vector, in PARAM_NAMES order."""
    return np.concatenate([params[name].ravel() for name in PARAM_NAMES])


def unflatten_params(theta: np.ndarray, cfg: EmbedderConfig, n_speakers: int) -> dict[str, np.ndarray]:
    """Inverse of flatten_params: views of theta, shaped per parameter."""
    shapes = _param_shapes(cfg, n_speakers)
    parts = np.split(np.asarray(theta, dtype=np.float64),
                     np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


@dataclass
class ForwardCache:
    """Intermediates of forward_pooled, consumed by backward_pooled."""

    xbar: np.ndarray  # (k, feat)
    a1: np.ndarray  # pre-relu, (k, hidden)
    h: np.ndarray  # (k, hidden)
    norms: np.ndarray  # (k,)
    emb: np.ndarray  # (k, emb)


def init_params(cfg: EmbedderConfig, n_speakers: int, seed: int) -> dict[str, np.ndarray]:
    """Gaussian weights scaled by 1/sqrt(fan_in), zero biases, random unit prototypes."""
    rng = Rng.from_seed(seed, "params")
    W1 = rng.normals(cfg.hidden_dim * cfg.feat_dim).reshape(cfg.hidden_dim, cfg.feat_dim) / np.sqrt(cfg.feat_dim)
    W2 = rng.normals(cfg.emb_dim * cfg.hidden_dim).reshape(cfg.emb_dim, cfg.hidden_dim) / np.sqrt(cfg.hidden_dim)
    P = Rng.from_seed(seed, "prototypes").normals(n_speakers * cfg.emb_dim).reshape(n_speakers, cfg.emb_dim)
    return {"W1": W1, "b1": np.zeros(cfg.hidden_dim), "W2": W2, "b2": np.zeros(cfg.emb_dim),
            "P": P / np.linalg.norm(P, axis=1, keepdims=True)}


def forward_pooled(xbar: np.ndarray, params: dict[str, np.ndarray]) -> tuple[np.ndarray, ForwardCache]:
    """Embed a batch of already frame-averaged feature vectors.

    xbar: (k, feat_dim) float64. Returns unit-norm embeddings (k, emb_dim)
    plus the cache needed for gradients.
    """
    a1 = xbar @ params["W1"].T
    a1 += params["b1"]
    h = np.maximum(a1, 0.0)
    z = h @ params["W2"].T
    z += params["b2"]
    norms = np.sqrt(np.add.reduce(z * z, axis=1))  # np.linalg.norm(z, axis=1)
    if (norms < _NORM_FLOOR).any():
        raise DegenerateEmbedding("pre-normalization embedding norm below 1e-8")
    emb = z / norms[:, None]
    return emb, ForwardCache(xbar, a1, h, norms, emb)


def backward_pooled(d_emb: np.ndarray, cache: ForwardCache, params: dict[str, np.ndarray],
                    grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Exact network gradients from upstream d loss / d embedding, written into grads' W1, b1, W2, b2.

    The radial direction is annihilated by the normalization Jacobian:
    dz = (d_emb - (d_emb . e) e) / ||z||. Returns grads.
    """
    radial = np.add.reduce(d_emb * cache.emb, axis=1, keepdims=True)
    dz = (d_emb - radial * cache.emb) / cache.norms[:, None]
    np.matmul(dz.T, cache.h, out=grads["W2"])
    np.add.reduce(dz, axis=0, out=grads["b2"])
    da1 = dz @ params["W2"] * (cache.a1 > 0.0)
    np.matmul(da1.T, cache.xbar, out=grads["W1"])
    np.add.reduce(da1, axis=0, out=grads["b1"])
    return grads


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    config: EmbedderConfig
    params: dict[str, np.ndarray]  # PARAM_NAMES order
    velocities: dict[str, np.ndarray] | None = None  # same keys as params; None only if never saved
    step: int = 0
    epoch: int = 0
    config_hash: bytes = b"\x00" * 32

    @property
    def n_speakers(self) -> int:
        return self.params["P"].shape[0]


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    cfg = ckpt.config
    blob = bytearray(_HEADER.pack(CKPT_MAGIC, CKPT_VERSION, cfg.feat_dim, cfg.hidden_dim,
                                  cfg.emb_dim, ckpt.n_speakers))
    blob += flatten_params(ckpt.params).astype("<f8").tobytes()
    blob += _OPT_HEADER.pack(OPT_MAGIC, ckpt.step, ckpt.epoch, ckpt.config_hash)
    blob += flatten_params(ckpt.velocities).astype("<f8").tobytes()
    atomic_write(path, bytes(blob))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, raising CorruptArtifact unless it is exactly well formed."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise CorruptArtifact(f"{path}: {len(raw)} bytes, shorter than the {_HEADER.size}-byte header")
    magic, version, feat, hidden, emb, n_spk = _HEADER.unpack_from(raw)
    if magic != CKPT_MAGIC:
        raise CorruptArtifact(f"{path}: bad checkpoint magic {magic!r}")
    if version != CKPT_VERSION:
        raise CorruptArtifact(f"{path}: unsupported checkpoint version {version}")
    if 0 in (feat, hidden, emb, n_spk):
        raise CorruptArtifact(f"{path}: zero dimension in header (feat {feat}, hidden {hidden}, "
                              f"emb {emb}, speakers {n_spk})")
    cfg = EmbedderConfig(feat, hidden, emb)
    count = sum(math.prod(shape) for shape in _param_shapes(cfg, n_spk).values())
    opt_at = _HEADER.size + 8 * count
    size = opt_at + _OPT_HEADER.size + 8 * count
    if len(raw) != size:
        raise CorruptArtifact(f"{path}: {len(raw)} bytes, but its header implies {size}")

    def read_block(offset: int) -> dict[str, np.ndarray]:
        flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).astype(np.float64)
        return unflatten_params(flat, cfg, n_spk)

    magic, step, epoch, config_hash = _OPT_HEADER.unpack_from(raw, opt_at)
    if magic != OPT_MAGIC:
        raise CorruptArtifact(f"{path}: bad optimizer-section magic {magic!r}")
    return Checkpoint(cfg, read_block(_HEADER.size), read_block(opt_at + _OPT_HEADER.size),
                      step, epoch, config_hash)
