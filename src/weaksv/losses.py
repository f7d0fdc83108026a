"""Loss mathematics for both training stages, values and exact gradients.

Stage 1 turns per-segment prototype cosines into recording-level
similarities (hard max, or a temperature-smoothed log-sum-exp) and
applies additive-angular-margin cross-entropy to them. Stage 2 applies
the same margin loss per segment, optionally extended with one extra
prototype-free class whose logit is a per-batch constant: zero for rows
with a known label, and the batch mean of the known rows' target logits
for rows without one. That constant is detached, so an unknown row can
lower its loss only by pushing all known-class logits down.

The log-sum-exp pool is mean-normalized, tau * ln((1/N) sum exp(v/tau)),
which keeps outputs at or below the max (and therefore inside [-1, 1]
for cosine inputs); its gradient is the softmax of v/tau, identical to
the unnormalized form.

Every function works on a whole mini-batch at once: `aggregate` pools
all bags of a stage-1 batch given the planner's bag map and returns the
pooled similarities with their backward closure, and the margin losses
take one row per bag or segment with a target per row. A training step
therefore makes one loss call (two on stage-1 and unknown-class steps)
instead of one per bag or row. Pooling and the margin loss also take a
stack of G models at once: cosines rows first, (rows, G, classes), with
a tau and a margin per model, so that reduceat still runs over axis 0
and every model's values are the ones its own 2-D call gives, to the
bit. Inputs are float64 and bool arrays, and the pooling kind and a
positive tau come from a checked configuration, so nothing here checks
them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoKnownExamples

MAX = "max"
LSE = "lse"

# cosines are clamped away from +-1 so the margin rotation keeps a
# bounded derivative
_COS_CLAMP = 1.0 - 1e-7


@dataclass(frozen=True)
class Schedule:
    """Linear interpolation between two endpoint values."""

    start: float
    end: float

    @classmethod
    def fixed(cls, value: float) -> "Schedule":
        return cls(value, value)

    def at(self, fraction: float) -> float:
        return self.start + (self.end - self.start) * fraction


class Pooled(NamedTuple):
    """(n_bags, n_classes) recording-level similarities, and d loss / d c_rec -> d loss / d c_seg."""

    c_rec: np.ndarray
    backward: Callable[[np.ndarray], np.ndarray]


def aggregate(c_seg: np.ndarray, kind: str, tau: float | np.ndarray | None = None, *, offsets: np.ndarray,
              sizes: np.ndarray, bag_of_row: np.ndarray) -> Pooled:
    """Per-class reduction of a (rows, n_classes) cosine matrix, bag by bag.

    offsets, sizes and bag_of_row are the stage-1 planner's bag map: each
    bag's first row (strictly increasing from 0), its row count, and each
    row's bag. MAX keeps, per bag and class, the first row attaining the
    maximum (the np.argmax tie rule) so gradients flow only through it;
    LSE (tau > 0) spreads them with softmax(v/tau) weights. A stack of G
    models passes (rows, G, n_classes) cosines and a tau per model.
    """
    vmax = np.maximum.reduceat(c_seg, offsets, axis=0)
    per_row = (-1,) + (1,) * (c_seg.ndim - 1)  # a row's value broadcast over its models and classes
    if kind == MAX:
        n_rows = c_seg.shape[0]
        hit = np.where(c_seg == vmax[bag_of_row], np.arange(n_rows).reshape(per_row), n_rows)
        argmax = np.minimum.reduceat(hit, offsets, axis=0).reshape(len(offsets), -1)

        def backward(d_rec: np.ndarray) -> np.ndarray:
            d_seg = np.zeros(c_seg.shape)
            # bags are disjoint row ranges, so no two bags write one cell
            d_seg.reshape(n_rows, -1)[argmax, np.arange(argmax.shape[1])] = d_rec.reshape(argmax.shape)
            return d_seg

        return Pooled(vmax, backward)
    if np.ndim(tau):  # one tau per model, broadcast over that model's classes
        tau = tau[:, None]
    ex = np.exp((c_seg - vmax[bag_of_row]) / tau)
    sums = np.add.reduceat(ex, offsets, axis=0)
    weights = ex / sums[bag_of_row]
    return Pooled(vmax + tau * np.log(sums / sizes.reshape(per_row)), lambda d_rec: weights * d_rec[bag_of_row])


def _aam_margin_grad(c: np.ndarray, m: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi, d psi / d c) elementwise, psi = cos(arccos(c) + m) computed without trig on the
    clamped cosine; the derivative is zero outside the clamp range."""
    cos_m, sin_m = np.cos(m), np.sin(m)
    cc = np.clip(c, -_COS_CLAMP, _COS_CLAMP)
    root = np.sqrt(1.0 - cc * cc)
    psi = cc * cos_m - root * sin_m
    outside = (c > _COS_CLAMP) | (c < -_COS_CLAMP)
    return psi, np.where(outside, 0.0, cos_m + cc / root * sin_m)


def _cross_entropy(logits: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax cross-entropy: (loss per row, softmax probabilities)."""
    mx = logits.max(axis=-1)
    e = np.exp(logits - mx[..., None])
    total = e.sum(axis=-1)
    loss = mx + np.log(total) - logits[np.arange(logits.shape[0]), ..., target]
    return loss, e / total[..., None]


def weak_recording_loss(
    c_rec: np.ndarray, target: np.ndarray, s: float, m: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Margin cross-entropy on recording-level similarities.

    c_rec is (rows, n_classes) with one target per row, or (rows, G,
    n_classes) for a stack of G models with a margin m per model. Logits
    are s*c for non-target classes and s*psi(c) for the target. Returns
    per-row losses, (rows,) or (rows, G), and d loss / d c_rec.
    """
    rows = np.arange(c_rec.shape[0])
    psi, dpsi = _aam_margin_grad(c_rec[rows, ..., target], m)
    logits = s * c_rec
    logits[rows, ..., target] = s * psi
    loss, p = _cross_entropy(logits, target)
    d_rec = s * p
    d_rec[rows, ..., target] = s * (p[rows, ..., target] - 1.0) * dpsi
    return loss, d_rec


def segment_aam_loss(
    c: np.ndarray, target: np.ndarray, s: float, m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment margin cross-entropy: every row is a bag of size one."""
    return weak_recording_loss(c, target, s, m)


def _seq_mean(values: list[float]) -> float:
    # left-to-right summation so reimplementations agree bit for bit
    acc = 0.0
    for v in values:
        acc += v
    return acc / len(values)


def extend_logits_unknown(
    L: np.ndarray, labels: np.ndarray, known_mask: np.ndarray
) -> np.ndarray:
    """Append the prototype-free unknown-class logit column.

    Rows with a known label get 0; rows without one get the batch mean of
    the known rows' target logits. The appended column is a constant with
    respect to differentiation.
    """
    known_rows = np.flatnonzero(known_mask)
    extra = np.zeros(L.shape[0])
    if not known_mask.all():
        if known_rows.size == 0:
            raise NoKnownExamples("a batch of only unknown rows cannot anchor the extra class")
        mean_target = _seq_mean(L[known_rows, labels[known_rows]].tolist())
        extra[~known_mask] = mean_target
    return np.concatenate([L, extra[:, None]], axis=1)


def extended_ce_loss(
    L_ext: np.ndarray, labels: np.ndarray, known_mask: np.ndarray, s: float, m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy over the extended logits.

    Known rows use their label with the margin applied to the target
    logit only; unknown rows use the appended class, no margin. Returns
    per-row losses and gradients with respect to the original logits L
    (the appended column is constant, so nothing flows through it).
    """
    n_rows, n_ext = L_ext.shape
    n_classes = n_ext - 1
    known = np.flatnonzero(known_mask)
    t = labels[known_mask].astype(np.intp)
    psi, dpsi = _aam_margin_grad(L_ext[known, t] / s, m)
    logits = L_ext.copy()
    logits[known, t] = s * psi
    # unknown rows target the appended class
    target = np.full(n_rows, n_classes, dtype=np.intp)
    target[known] = t
    losses, p = _cross_entropy(logits, target)
    d_L = p[:, :n_classes].copy()
    d_L[known, t] = (d_L[known, t] - 1.0) * dpsi
    return losses, d_L
