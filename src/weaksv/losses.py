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
all bags of a stage-1 batch given their start offsets, and the margin
losses take one row per bag or segment with a target per row. A
training step therefore makes one loss call (two on stage-1 and
unknown-class steps) instead of one per bag or row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NoKnownExamples

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


@dataclass(frozen=True)
class LossConfig:
    scale: float = 30.0
    margin: Schedule = Schedule.fixed(0.0)
    tau: Schedule = Schedule(0.5, 0.1)
    aggregation: str = MAX


@dataclass
class Aggregation:
    """Recording-level similarities plus what backward needs for routing.

    Arrays are per bag: c_rec and argmax are (n_bags, n_classes).
    """

    c_rec: np.ndarray
    kind: str
    bag_of_row: np.ndarray  # (rows,) index of the bag each segment row belongs to
    argmax: np.ndarray | None = None  # rows picked by MAX, shaped like c_rec
    weights: np.ndarray | None = None  # (rows, n_classes) softmax weights for LSE

    def backward(self, d_rec: np.ndarray) -> np.ndarray:
        """d loss / d segment-cosines from d loss / d recording-cosines."""
        d_rec = np.asarray(d_rec, dtype=np.float64)
        if self.kind == MAX:
            d_seg = np.zeros((self.bag_of_row.size, d_rec.shape[1]))
            # bags are disjoint row ranges, so no two bags write one cell
            d_seg[self.argmax, np.arange(d_rec.shape[1])] = d_rec
            return d_seg
        return self.weights * d_rec[self.bag_of_row]


def aggregate(
    c_seg: np.ndarray, kind: str, tau: float | None = None, *, offsets: np.ndarray
) -> Aggregation:
    """Per-class reduction of a (rows, n_classes) cosine matrix, bag by bag.

    offsets holds the first row of each bag (strictly increasing from 0).
    MAX keeps, per bag and class, the first row attaining the maximum (the
    np.argmax tie rule) so gradients flow only through it; LSE spreads
    them with softmax(v/tau) weights.
    """
    c_seg = np.asarray(c_seg, dtype=np.float64)
    n_rows = c_seg.shape[0]
    starts = np.asarray(offsets, dtype=np.intp).ravel()
    if (n_rows < 1 or starts.size < 1 or starts[0] != 0 or starts[-1] >= n_rows
            or np.any(np.diff(starts) <= 0)):
        raise EmptyInput("empty bag")
    sizes = np.diff(np.append(starts, n_rows))
    bag_of_row = np.repeat(np.arange(starts.size), sizes)
    vmax = np.maximum.reduceat(c_seg, starts, axis=0)
    if kind == MAX:
        rows = np.arange(n_rows)[:, None]
        hit = np.where(c_seg == vmax[bag_of_row], rows, n_rows)
        idx = np.minimum.reduceat(hit, starts, axis=0)
        return Aggregation(vmax, MAX, bag_of_row, argmax=idx)
    if kind == LSE:
        if tau is None or tau <= 0:
            raise ValueError("LSE aggregation needs a positive tau")
        ex = np.exp((c_seg - vmax[bag_of_row]) / tau)
        sums = np.add.reduceat(ex, starts, axis=0)
        c_rec = vmax + tau * np.log(sums / sizes[:, None])
        weights = ex / sums[bag_of_row]
        return Aggregation(c_rec, LSE, bag_of_row, weights=weights)
    raise ValueError(f"unknown aggregation {kind!r}")


def _aam_margin_grad(c: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """(psi, d psi / d c) elementwise, psi = cos(arccos(c) + m) computed without trig on the
    clamped cosine; the derivative is zero outside the clamp range."""
    cc = np.clip(c, -_COS_CLAMP, _COS_CLAMP)
    root = np.sqrt(1.0 - cc * cc)
    psi = cc * np.cos(m) - root * np.sin(m)
    outside = (c > _COS_CLAMP) | (c < -_COS_CLAMP)
    return psi, np.where(outside, 0.0, np.cos(m) + cc / root * np.sin(m))


def _cross_entropy(logits: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax cross-entropy: (loss per row, softmax probabilities)."""
    mx = logits.max(axis=1)
    e = np.exp(logits - mx[:, None])
    total = e.sum(axis=1)
    loss = mx + np.log(total) - logits[np.arange(logits.shape[0]), target]
    return loss, e / total[:, None]


def weak_recording_loss(
    c_rec: np.ndarray, target: np.ndarray, s: float, m: float
) -> tuple[np.ndarray, np.ndarray]:
    """Margin cross-entropy on recording-level similarities.

    c_rec is (rows, n_classes) with one target per row. Logits are s*c
    for non-target classes and s*psi(c) for the target. Returns per-row
    losses and d loss / d c_rec.
    """
    c = np.asarray(c_rec, dtype=np.float64)
    rows = np.arange(c.shape[0])
    t = np.asarray(target, dtype=np.intp).reshape(-1)
    psi, dpsi = _aam_margin_grad(c[rows, t], m)
    logits = s * c
    logits[rows, t] = s * psi
    loss, p = _cross_entropy(logits, t)
    d_rec = s * p
    d_rec[rows, t] = s * (p[rows, t] - 1.0) * dpsi
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
    L = np.atleast_2d(np.asarray(L, dtype=np.float64))
    labels = np.asarray(labels)
    known_mask = np.asarray(known_mask, dtype=bool)
    known_rows = np.flatnonzero(known_mask)
    extra = np.zeros(L.shape[0])
    if not known_mask.all():
        if known_rows.size == 0:
            raise NoKnownExamples("a batch of only unknown rows cannot anchor the extra class")
        mean_target = _seq_mean([float(L[i, labels[i]]) for i in known_rows])
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
    L_ext = np.atleast_2d(np.asarray(L_ext, dtype=np.float64))
    known_mask = np.asarray(known_mask, dtype=bool)
    n_rows, n_ext = L_ext.shape
    n_classes = n_ext - 1
    known = np.flatnonzero(known_mask)
    t = np.asarray(labels)[known_mask].astype(np.intp)
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
