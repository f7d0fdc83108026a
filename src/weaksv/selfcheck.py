"""Quick internal consistency checks behind `weaksv selfcheck`.

Verifies, in a few seconds: analytic gradients of every loss path against
central finite differences, the soft-max pooling bounds, agreement of the
EER/minDCF implementations with direct threshold sweeps, the extended
logit column rules, and generator reproducibility. Raises WeaksvError on
the first failure.

The gradient check differences `composite_loss`, which runs the trainer's
own training step (`loss_and_grads` with a stage's batch loss) at a flat
parameter vector; the test suite's gradient criteria difference the same
function with their own finite-difference oracle.
"""

from __future__ import annotations

import numpy as np

from .embedder import EmbedderConfig, flatten_params, forward_pooled, init_params, unflatten_params
from .errors import WeaksvError
from .losses import LSE, aggregate, extend_logits_unknown
from .metrics import ScoreSet, compute_eer, compute_mindcf
from .rng import Rng
from .trainer import loss_and_grads, recording_batch_loss, segment_batch_loss


def composite_loss(theta, cfg, n_speakers, xbar, path, *, target=0, s=30.0, m=0.1,
                   tau=0.5, labels=None, known_mask=None, extra_col=None):
    """(loss, flat analytic gradient) of one training step at parameters theta.

    path selects the batch loss: "max" or "lse" (stage 1, the rows form one
    bag of recording label target), "stage2" (every row labelled target)
    or "extended" (labels with known_mask; the unknown class). For the
    extended path, extra_col (the detached appended logit column) must be
    precomputed at the base point so differencing respects the
    stop-gradient semantics.
    """
    n_rows = len(xbar)
    if path in ("max", "lse"):
        batch_loss = recording_batch_loss(path, s, np.zeros(1, dtype=np.intp), np.array([target]))
    elif path == "stage2":
        batch_loss = segment_batch_loss(s, np.full(n_rows, target), np.ones(n_rows, dtype=bool))
    elif path == "extended":
        batch_loss = segment_batch_loss(s, labels, known_mask,
                                        None if extra_col is None else np.asarray(extra_col))
    else:
        raise ValueError(path)
    loss, grads = loss_and_grads(unflatten_params(theta, cfg, n_speakers), xbar, batch_loss, m, tau)
    return loss, flatten_params(grads)


def _check_gradients() -> None:
    cfg = EmbedderConfig(feat_dim=5, hidden_dim=6, emb_dim=4)
    n_spk, bag = 5, 3
    h = 1e-5
    for seed in range(3):
        rng = Rng.from_seed(seed, "selfcheck")
        params = init_params(cfg, n_spk, seed)
        xbar = rng.normals(bag * cfg.feat_dim).reshape(bag, cfg.feat_dim)
        theta = flatten_params(params)
        labels, mask = np.array([0, 1, 0]), np.array([True, True, False])
        emb0, _ = forward_pooled(xbar, params)
        extra = extend_logits_unknown(30.0 * (emb0 @ params["P"].T), labels, mask)[:, -1]
        cases = [
            ("max", {}),
            ("lse", {}),
            ("stage2", {}),
            ("extended", dict(labels=labels, known_mask=mask, extra_col=extra)),
        ]
        for path, extra_kw in cases:
            kw = dict(target=1, s=30.0, m=0.1, tau=0.3, **extra_kw)
            _, grad = composite_loss(theta, cfg, n_spk, xbar, path, **kw)
            fd = np.empty_like(grad)
            for i in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (composite_loss(tp, cfg, n_spk, xbar, path, **kw)[0]
                         - composite_loss(tm, cfg, n_spk, xbar, path, **kw)[0]) / (2 * h)
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
        val = aggregate(v[:, None], LSE, tau, offsets=[0]).c_rec[0, 0]  # the pool training runs
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
