"""Quick internal consistency checks behind `weaksv selfcheck`.

Verifies, in a few seconds: analytic gradients of every loss path against
central finite differences, the soft-max pooling bounds, agreement of the
EER/minDCF implementations with direct threshold sweeps, the extended
logit column rules, and generator reproducibility. Raises WeaksvError on
the first failure.
"""

from __future__ import annotations

import numpy as np

from .embedder import EmbedderConfig, EmbedderParams, backward_pooled, forward_pooled, init_params, init_prototypes
from .errors import WeaksvError
from .losses import aggregate, extend_logits_unknown, extended_ce_loss, lse_tau, segment_aam_loss, weak_recording_loss
from .metrics import ScoreSet, compute_eer, compute_mindcf
from .rng import Rng


def _flatten(params: EmbedderParams, prototypes: np.ndarray) -> np.ndarray:
    return np.concatenate([params.W1.ravel(), params.b1, params.W2.ravel(),
                           params.b2, prototypes.ravel()])


def _unflatten(theta: np.ndarray, cfg: EmbedderConfig, n_spk: int):
    sizes = [cfg.hidden_dim * cfg.feat_dim, cfg.hidden_dim,
             cfg.emb_dim * cfg.hidden_dim, cfg.emb_dim, n_spk * cfg.emb_dim]
    parts = np.split(theta, np.cumsum(sizes)[:-1])
    params = EmbedderParams(parts[0].reshape(cfg.hidden_dim, cfg.feat_dim), parts[1].copy(),
                            parts[2].reshape(cfg.emb_dim, cfg.hidden_dim), parts[3].copy())
    return params, parts[4].reshape(n_spk, cfg.emb_dim)


def _composite(theta, cfg, n_spk, xbar, path, target, s, m, tau, labels=None, mask=None,
               extra_col=None):
    params, prototypes = _unflatten(theta, cfg, n_spk)
    emb, cache = forward_pooled(xbar, params)
    cos = emb @ prototypes.T
    if path == "stage1-max" or path == "stage1-lse":
        agg = aggregate(cos, "max" if path.endswith("max") else "lse", tau)
        loss, d_rec = weak_recording_loss(agg.c_rec, target, s, m)
        d_cos = agg.backward(d_rec)
    elif path == "stage2":
        losses, d_cos = segment_aam_loss(cos, np.full(cos.shape[0], target), s, m)
        loss = float(losses.mean())
        d_cos /= cos.shape[0]
    else:
        # the appended logit is a detached constant, so the differenced
        # function must hold it at its base-point value
        if extra_col is None:
            ext = extend_logits_unknown(s * cos, labels, mask)
        else:
            ext = np.concatenate([s * cos, extra_col[:, None]], axis=1)
        losses, d_logits = extended_ce_loss(ext, labels, mask, s, m)
        loss = float(losses.mean())
        d_cos = s * d_logits / cos.shape[0]
    grads = backward_pooled(d_cos @ prototypes, cache, params)
    grads["P"] = d_cos.T @ emb
    flat_grad = np.concatenate([grads["W1"].ravel(), grads["b1"], grads["W2"].ravel(),
                                grads["b2"], grads["P"].ravel()])
    return loss, flat_grad


def _check_gradients() -> None:
    cfg = EmbedderConfig(feat_dim=5, hidden_dim=6, emb_dim=4)
    n_spk, bag = 5, 3
    h = 1e-5
    for seed in range(3):
        rng = Rng.from_seed(seed, "selfcheck")
        params = init_params(cfg, seed)
        prototypes = init_prototypes(n_spk, cfg.emb_dim, seed)
        xbar = rng.normals(bag * cfg.feat_dim).reshape(bag, cfg.feat_dim)
        theta = _flatten(params, prototypes)
        cases = [
            ("stage1-max", None, None),
            ("stage1-lse", None, None),
            ("stage2", None, None),
            ("extended", np.array([0, 1, 0]), np.array([True, True, False])),
        ]
        for path, labels, mask in cases:
            extra = None
            if path == "extended":
                p0, pr0 = _unflatten(theta, cfg, n_spk)
                emb0, _ = forward_pooled(xbar, p0)
                extra = extend_logits_unknown(30.0 * (emb0 @ pr0.T), labels, mask)[:, -1]
            args = (cfg, n_spk, xbar, path, 1, 30.0, 0.1, 0.3, labels, mask, extra)
            _, grad = _composite(theta, *args)
            fd = np.empty_like(grad)
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (_composite(tp, *args)[0] - _composite(tm, *args)[0]) / (2 * h)
            err = np.max(np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-3))
            if err >= 1e-5:
                raise WeaksvError(f"gradient check failed for {path} (seed {seed}): rel err {err:.2e}")
    print("selfcheck: gradients match finite differences")


def _check_pooling() -> None:
    rng = Rng.from_seed(11, "selfcheck-pool")
    for _ in range(200):
        n = 2 + rng.randint(15)
        v = rng.floats(n) * 2.0 - 1.0
        tau = 0.05 + rng.float()
        val = lse_tau(v, tau)
        if not (v.mean() - 1e-12 < val <= v.max() + 1e-12):
            raise WeaksvError("pooling bound violated")
        if abs(val - v.max()) > tau * np.log(n) + 1e-12:
            raise WeaksvError("pooling gap bound violated")
    print("selfcheck: pooling bounds hold")


def _check_metrics() -> None:
    rng = Rng.from_seed(23, "selfcheck-metrics")
    for _ in range(5):
        n = 50 + rng.randint(100)
        scores = rng.floats(n) * 2.0 - 1.0
        labels = rng.floats(n) < 0.4
        if labels.all() or not labels.any():
            continue
        ss = ScoreSet(scores, labels)
        # direct sweep over thresholds at each distinct score and +-inf
        tar, non = scores[labels], scores[~labels]
        pts = []
        for th in [-np.inf, *np.unique(scores), np.inf]:
            pts.append((np.mean(tar < th), np.mean(non >= th)))
        diffs = [m - f for m, f in pts]
        idx = next(i for i, d in enumerate(diffs) if d >= 0)
        if diffs[idx] == 0:
            eer_ref = pts[idx][0]
        else:
            (m1, f1), (m2, f2) = pts[idx - 1], pts[idx]
            t = (f1 - m1) / ((m2 - m1) - (f2 - f1))
            eer_ref = m1 + t * (m2 - m1)
        if abs(compute_eer(ss) - eer_ref) > 1e-9:
            raise WeaksvError("EER disagrees with the direct sweep")
        p = 0.05
        dcf_ref = min(p * m + (1 - p) * f for m, f in pts) / min(p, 1 - p)
        if abs(compute_mindcf(ss, p) - dcf_ref) > 1e-9:
            raise WeaksvError("minDCF disagrees with the direct sweep")
    print("selfcheck: EER/minDCF match direct sweeps")


def _check_extension() -> None:
    L = np.array([[2.0, -1.0], [0.5, 1.5], [1.0, 1.0]])
    labels = np.array([0, 1, 0])
    mask = np.array([True, True, False])
    ext = extend_logits_unknown(L, labels, mask)
    if not (ext[0, 2] == 0.0 and ext[1, 2] == 0.0 and ext[2, 2] == 1.75):
        raise WeaksvError("extended logit column rule broken")
    print("selfcheck: unknown-class logit rules hold")


def _check_rng() -> None:
    a = Rng.from_seed(5)
    b = Rng.from_seed(5)
    if [a.u64() for _ in range(8)] != b._block(8).tolist():
        raise WeaksvError("scalar and vector RNG paths disagree")
    print("selfcheck: RNG scalar/vector paths agree")


def run_selfcheck() -> None:
    _check_rng()
    _check_pooling()
    _check_extension()
    _check_metrics()
    _check_gradients()
    print("selfcheck: all checks passed")
