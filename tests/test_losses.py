import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaksv.errors import EmptyInput, NoKnownExamples
from weaksv.losses import (
    LSE,
    MAX,
    Schedule,
    _aam_margin_grad,
    aggregate,
    extend_logits_unknown,
    extended_ce_loss,
    segment_aam_loss,
    weak_recording_loss,
)
from weaksv.rng import Rng

finite_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def lse_pool(values, tau):
    """The LSE pool of one bag, as stage-1 training runs it."""
    return aggregate(np.asarray(values, dtype=np.float64)[:, None], LSE, tau, offsets=[0]).c_rec[0, 0]


class TestLseTau:
    def test_constant_vector_is_identity(self):
        for tau in (0.01, 0.5, 3.0):
            assert lse_pool(np.array([0.3, 0.3]), tau) == pytest.approx(0.3, abs=1e-12)

    def test_reference_value(self):
        # direct high-precision evaluation of the defining formula
        v = [0.9, -0.2, 0.4]
        expected = 0.5 * math.log((math.exp(1.8) + math.exp(-0.4) + math.exp(0.8)) / 3.0)
        got = lse_pool(np.array(v), 0.5)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.5463, abs=1e-4)

    def test_small_tau_approaches_max(self):
        got = lse_pool(np.array([0.9, -0.2, 0.4]), 0.01)
        assert 0.9 - 0.011 <= got <= 0.9

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            lse_pool(np.array([]), 0.5)

    @settings(max_examples=200)
    @given(st.lists(finite_floats, min_size=2, max_size=16),
           st.floats(min_value=0.01, max_value=5.0))
    def test_bounds(self, values, tau):
        v = np.array(values)
        got = lse_pool(v, tau)
        assert got <= v.max() + 1e-12
        assert got >= v.mean() - 1e-12
        assert got >= v.max() - tau * math.log(len(values)) - 1e-12

    @settings(max_examples=100)
    @given(st.lists(finite_floats, min_size=2, max_size=16))
    def test_monotone_nonincreasing_in_tau(self, values):
        v = np.array(values)
        taus = np.linspace(0.05, 2.0, 10)
        outs = [lse_pool(v, t) for t in taus]
        for a, b in zip(outs, outs[1:]):
            assert b <= a + 1e-12


class TestAggregate:
    def test_single_row_is_identity(self):
        row = np.array([[0.4, -0.2, 0.1]])
        assert np.allclose(aggregate(row, MAX, offsets=[0]).c_rec, row)
        assert np.allclose(aggregate(row, LSE, 0.5, offsets=[0]).c_rec, row)

    def test_max_per_class_with_argmax(self):
        c = np.array([[0.8, -0.1], [0.2, 0.5]])
        agg = aggregate(c, MAX, offsets=[0])
        assert np.allclose(agg.c_rec, [[0.8, 0.5]])
        assert agg.argmax.tolist() == [[0, 1]]

    def test_lse_below_max_above_mean(self):
        c = np.array([[0.8, -0.1], [0.2, 0.5]])
        mx = aggregate(c, MAX, offsets=[0]).c_rec
        ls = aggregate(c, LSE, 0.5, offsets=[0]).c_rec
        assert np.all(ls <= mx + 1e-12)
        assert np.all(ls >= c.mean(axis=0) - 1e-12)

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10_000))
    def test_row_permutation_invariance(self, bag, classes, seed):
        rng = Rng.from_seed(seed)
        c = rng.floats(bag * classes).reshape(bag, classes) * 2 - 1
        perm = list(range(bag))
        rng.shuffle(perm)
        for kind, tau in ((MAX, None), (LSE, 0.3)):
            a = aggregate(c, kind, tau, offsets=[0]).c_rec
            b = aggregate(c[perm], kind, tau, offsets=[0]).c_rec
            assert np.allclose(a, b, atol=1e-12)

    def test_max_routes_gradient_to_argmax_rows(self):
        c = np.array([[0.8, -0.1], [0.2, 0.5]])
        agg = aggregate(c, MAX, offsets=[0])
        d = agg.backward(np.array([[1.0, 2.0]]))
        assert np.array_equal(d, [[1.0, 0.0], [0.0, 2.0]])

    def test_lse_gradient_is_columnwise_softmax(self):
        c = np.array([[0.8, -0.1], [0.2, 0.5]])
        agg = aggregate(c, LSE, 0.5, offsets=[0])
        d = agg.backward(np.ones((1, 2)))
        assert np.allclose(d.sum(axis=0), [1.0, 1.0])
        ref = np.exp(c / 0.5) / np.exp(c / 0.5).sum(axis=0, keepdims=True)
        assert np.allclose(d, ref, atol=1e-12)


class TestAamMargin:
    def test_zero_margin_is_identity(self):
        for c in (-0.9, -0.3, 0.0, 0.4, 0.99):
            assert _aam_margin_grad(c, 0.0)[0] == pytest.approx(c, abs=1e-12)

    def test_saturated_cosine(self):
        # trig oracle: cos(arccos(clamped 1.0) + 0.2)
        expected = math.cos(math.acos(1.0 - 1e-7) + 0.2)
        assert _aam_margin_grad(1.0, 0.2)[0] == pytest.approx(expected, abs=1e-12)
        assert _aam_margin_grad(1.0, 0.2)[0] == pytest.approx(0.98007, abs=1e-4)

    def test_perpendicular_cosine(self):
        assert _aam_margin_grad(0.0, 0.2)[0] == pytest.approx(-math.sin(0.2), abs=1e-12)
        assert _aam_margin_grad(0.0, 0.2)[0] == pytest.approx(-0.19867, abs=1e-4)

    @given(st.floats(min_value=-0.99, max_value=0.99), st.floats(min_value=0.0, max_value=0.5))
    def test_matches_trig_form(self, c, m):
        assert _aam_margin_grad(c, m)[0] == pytest.approx(math.cos(math.acos(c) + m), abs=1e-9)


class TestWeakRecordingLoss:
    def test_reference_value(self):
        c = np.array([[0.8, 0.1, -0.3]])
        loss, _ = weak_recording_loss(c, np.array([0]), s=30.0, m=0.0)
        expected = math.log(1.0 + math.exp(-21.0) + math.exp(-33.0))
        assert loss[0] == pytest.approx(expected, rel=1e-9)

    def test_zero_margin_equals_plain_softmax_ce(self):
        rng = Rng.from_seed(4)
        for _ in range(50):
            c = rng.floats(6) * 2 - 1
            t = rng.randint(6)
            loss, _ = weak_recording_loss(c[None, :], np.array([t]), s=30.0, m=0.0)
            logits = 30.0 * c
            ref = math.log(np.exp(logits - logits.max()).sum()) + logits.max() - logits[t]
            assert loss[0] == pytest.approx(ref, abs=1e-12)

    def test_uniform_similarities_give_log_n(self):
        c = np.full((1, 7), 0.25)
        loss, _ = weak_recording_loss(c, np.array([3]), s=30.0, m=0.0)
        assert loss[0] == pytest.approx(math.log(7), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = Rng.from_seed(5)
        for trial in range(20):
            c = (rng.floats(5) * 1.8 - 0.9).astype(np.float64)[None, :]
            t = np.array([rng.randint(5)])
            m = 0.15
            _, grad = weak_recording_loss(c, t, s=30.0, m=m)
            h = 1e-7
            for j in range(5):
                up, down = c.copy(), c.copy()
                up[0, j] += h
                down[0, j] -= h
                fd = (weak_recording_loss(up, t, 30.0, m)[0][0]
                      - weak_recording_loss(down, t, 30.0, m)[0][0]) / (2 * h)
                assert grad[0, j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestSegmentAamLoss:
    def test_coincides_with_recording_loss(self):
        c = np.array([[0.8, 0.1, -0.3]])
        a = segment_aam_loss(c, np.array([0]), 30.0, 0.0)
        b = weak_recording_loss(c, np.array([0]), 30.0, 0.0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @settings(max_examples=150)
    @given(st.lists(st.floats(min_value=-0.8, max_value=0.999), min_size=2, max_size=8),
           st.floats(min_value=0.0, max_value=0.5), st.integers(min_value=0, max_value=10_000))
    def test_target_gradient_nonpositive(self, values, m, seed):
        # raising the target cosine never raises the loss while the margin
        # rotation stays monotone, i.e. for c_t > -cos(m)
        c = np.array(values)
        t = Rng.from_seed(seed).randint(len(values))
        if c[t] <= -math.cos(m) + 1e-6:
            c[t] = 0.5
        _, grad = segment_aam_loss(c[None, :], np.array([t]), 30.0, m)
        assert grad[0, t] <= 1e-12


class TestExtendLogits:
    def test_all_known_rows_get_zero(self):
        L = np.array([[2.0, -1.0], [0.5, 1.5]])
        ext = extend_logits_unknown(L, np.array([0, 1]), np.array([True, True]))
        assert np.array_equal(ext[:, :2], L)
        assert np.array_equal(ext[:, 2], [0.0, 0.0])

    def test_unknown_rows_get_mean_target_logit(self):
        L = np.array([[2.0, -1.0], [0.5, 1.5], [1.0, 1.0]])
        ext = extend_logits_unknown(L, np.array([0, 1, 0]), np.array([True, True, False]))
        assert ext[0, 2] == 0.0 and ext[1, 2] == 0.0
        assert ext[2, 2] == (2.0 + 1.5) / 2  # exactly 1.75

    def test_only_unknown_rows_rejected(self):
        with pytest.raises(NoKnownExamples):
            extend_logits_unknown(np.array([[1.0, 2.0]]), np.array([0]), np.array([False]))

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=10_000))
    def test_appending_never_changes_known_argmax(self, rows, classes, seed):
        rng = Rng.from_seed(seed)
        L = rng.floats(rows * classes).reshape(rows, classes) * 6 - 3
        labels = np.array([rng.randint(classes) for _ in range(rows)])
        ext = extend_logits_unknown(L, labels, np.ones(rows, dtype=bool))
        assert np.array_equal(np.argmax(ext[:, :classes], axis=1), np.argmax(L, axis=1))

    def test_exact_mean_matches_sequential_sum(self):
        rng = Rng.from_seed(77)
        L = rng.floats(5 * 4).reshape(5, 4) * 4 - 2
        labels = np.array([0, 1, 2, 3, 0])
        mask = np.array([True, True, True, True, False])
        ext = extend_logits_unknown(L, labels, mask)
        acc = 0.0
        for i in range(4):
            acc += float(L[i, labels[i]])
        assert ext[4, 4] == acc / 4  # bitwise: same summation order


class TestExtendedCeLoss:
    def test_unknown_row_with_suppressed_logits_has_tiny_loss(self):
        L = np.array([[3.0, 1.0], [-50.0, -50.0]])
        labels = np.array([0, 0])
        mask = np.array([True, False])
        ext = extend_logits_unknown(L, labels, mask)
        losses, _ = extended_ce_loss(ext, labels, mask, s=30.0, m=0.0)
        assert losses[1] < 1e-12

    def test_known_row_zero_margin_is_plain_ce_with_extra_zero(self):
        L = np.array([[1.2, -0.4, 0.3]])
        labels = np.array([0])
        mask = np.array([True])
        ext = extend_logits_unknown(L, labels, mask)
        losses, _ = extended_ce_loss(ext, labels, mask, s=30.0, m=0.0)
        logits = np.array([1.2, -0.4, 0.3, 0.0])
        ref = math.log(np.exp(logits).sum()) - 1.2
        assert losses[0] == pytest.approx(ref, abs=1e-12)

    def test_unknown_row_gradient_is_softmax_of_known_logits(self):
        L = np.array([[2.0, 0.5], [0.8, 1.1]])
        labels = np.array([0, 0])
        mask = np.array([True, False])
        ext = extend_logits_unknown(L, labels, mask)
        _, d = extended_ce_loss(ext, labels, mask, s=30.0, m=0.0)
        row = np.concatenate([L[1], [ext[1, 2]]])
        p = np.exp(row - row.max())
        p /= p.sum()
        assert np.allclose(d[1], p[:2], atol=1e-12)
        assert np.all(d[1] > 0)  # pushes every known logit down

    def test_gradients_match_finite_differences_with_frozen_column(self):
        rng = Rng.from_seed(6)
        for _ in range(10):
            L = rng.floats(4 * 3).reshape(4, 3) * 6 - 3
            labels = np.array([rng.randint(3) for _ in range(4)])
            mask = np.array([True, True, True, False])
            ext = extend_logits_unknown(L, labels, mask)
            extra = ext[:, 3].copy()
            losses, d = extended_ce_loss(ext, labels, mask, s=30.0, m=0.2)
            h = 1e-7
            for i in range(4):
                for j in range(3):
                    up, down = L.copy(), L.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    # appended column held at its base value: it is a constant
                    up_ext = np.concatenate([up, extra[:, None]], axis=1)
                    down_ext = np.concatenate([down, extra[:, None]], axis=1)
                    lu, _ = extended_ce_loss(up_ext, labels, mask, 30.0, 0.2)
                    ld, _ = extended_ce_loss(down_ext, labels, mask, 30.0, 0.2)
                    fd = (lu[i] - ld[i]) / (2 * h)
                    assert d[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# Batched calls against a per-bag / per-row reference loop
# ---------------------------------------------------------------------------

CLAMP = 1.0 - 1e-7
# exact repeats make MAX ties; the last six sit at and beyond the clamp
EDGE_COSINES = [0.5, -0.25, 0.0, CLAMP, -CLAMP, 1.0, -1.0, 1.0 - 5e-8, -(1.0 - 5e-8)]
cosines = st.one_of(st.sampled_from(EDGE_COSINES), finite_floats)


def ref_margin(c, m):
    """(psi, d psi / d c) of one cosine; zero derivative beyond the clamp."""
    if c > CLAMP or c < -CLAMP:
        cc = min(max(c, -CLAMP), CLAMP)
        return cc * np.cos(m) - np.sqrt(1.0 - cc * cc) * np.sin(m), 0.0
    root = np.sqrt(1.0 - c * c)
    return c * np.cos(m) - root * np.sin(m), np.cos(m) + c / root * np.sin(m)


def ref_cross_entropy(logits, t):
    mx = logits.max()
    e = np.exp(logits - mx)
    total = e.sum()
    return mx + np.log(total) - logits[t], e / total


def ref_margin_ce(c, t, s, m):
    """One row of margin cross-entropy: (loss, d loss / d c)."""
    psi, dpsi = ref_margin(float(c[t]), m)
    logits = s * c
    logits[t] = s * psi
    loss, p = ref_cross_entropy(logits, t)
    d = s * p
    d[t] = s * (p[t] - 1.0) * dpsi
    return loss, d


def ref_stage1(c, sizes, targets, kind, tau, s, m):
    """Bag by bag: pool, margin loss, route the gradient back to the rows."""
    losses, d_seg, start = [], np.zeros_like(c), 0
    for size, t in zip(sizes, targets):
        bag = c[start:start + size]
        cols = np.arange(c.shape[1])
        if kind == MAX:
            idx = np.argmax(bag, axis=0)
            loss, d_rec = ref_margin_ce(bag[idx, cols], t, s, m)
            d_seg[start + idx, cols] = d_rec
        else:
            vmax = bag.max(axis=0)
            ex = np.exp((bag - vmax) / tau)
            c_rec = vmax + tau * np.log(ex.mean(axis=0))
            loss, d_rec = ref_margin_ce(c_rec, t, s, m)
            d_seg[start:start + size] = ex / ex.sum(axis=0) * d_rec
        losses.append(loss)
        start += size
    return np.array(losses), d_seg


def ref_extended(L_ext, labels, known, s, m):
    """Row by row: margin on a known row's target, the appended class otherwise."""
    n_classes = L_ext.shape[1] - 1
    losses, d_L = np.empty(L_ext.shape[0]), np.zeros((L_ext.shape[0], n_classes))
    for i, row in enumerate(L_ext):
        row = row.copy()
        if known[i]:
            t = int(labels[i])
            psi, dpsi = ref_margin(float(row[t] / s), m)
            row[t] = s * psi
            losses[i], p = ref_cross_entropy(row, t)
            d_L[i] = p[:n_classes]
            d_L[i, t] = (p[t] - 1.0) * dpsi
        else:
            losses[i], p = ref_cross_entropy(row, n_classes)
            d_L[i] = p[:n_classes]
    return losses, d_L


@st.composite
def segment_batches(draw):
    """(cosines, bag sizes, one target per bag, one label per row, margin)."""
    n_classes = draw(st.integers(min_value=2, max_value=6))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
    n_rows = sum(sizes)
    c = np.array(draw(st.lists(cosines, min_size=n_rows * n_classes,
                               max_size=n_rows * n_classes))).reshape(n_rows, n_classes)
    targets = draw(st.lists(st.integers(0, n_classes - 1), min_size=len(sizes),
                            max_size=len(sizes)))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows))
    m = draw(st.floats(min_value=0.0, max_value=0.5))
    return c, sizes, np.array(targets), np.array(labels), m


def _offsets(sizes):
    return np.cumsum([0] + list(sizes[:-1]))


class TestBatchedParity:
    @settings(max_examples=150, deadline=None)
    @given(segment_batches())
    def test_max_pooling_is_bitwise_equal(self, batch):
        c, sizes, targets, _, m = batch
        agg = aggregate(c, MAX, offsets=_offsets(sizes))
        losses, d_rec = weak_recording_loss(agg.c_rec, targets, 30.0, m)
        ref_losses, ref_d = ref_stage1(c, sizes, targets, MAX, None, 30.0, m)
        assert np.array_equal(losses, ref_losses)
        assert np.array_equal(agg.backward(d_rec), ref_d)

    @settings(max_examples=150, deadline=None)
    @given(segment_batches(), st.floats(min_value=0.05, max_value=2.0))
    def test_lse_pooling_within_1e12(self, batch, tau):
        c, sizes, targets, _, m = batch
        agg = aggregate(c, LSE, tau, offsets=_offsets(sizes))
        losses, d_rec = weak_recording_loss(agg.c_rec, targets, 30.0, m)
        ref_losses, ref_d = ref_stage1(c, sizes, targets, LSE, tau, 30.0, m)
        # the per-bag sums accumulate in another order; atol covers values near 0
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(agg.backward(d_rec), ref_d, rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(segment_batches())
    def test_segment_loss_is_bitwise_equal(self, batch):
        c, _, _, labels, m = batch
        losses, d_c = segment_aam_loss(c, labels, 30.0, m)
        for i in range(c.shape[0]):
            loss, d = ref_margin_ce(c[i], labels[i], 30.0, m)
            assert losses[i] == loss and np.array_equal(d_c[i], d)
        beyond = np.abs(c[np.arange(c.shape[0]), labels]) > CLAMP
        assert np.all(d_c[beyond, labels[beyond]] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(segment_batches(), st.data())
    def test_extended_loss_is_bitwise_equal(self, batch, data):
        c, _, _, labels, m = batch
        known = np.array(data.draw(st.lists(st.booleans(), min_size=c.shape[0],
                                            max_size=c.shape[0])))
        known[data.draw(st.integers(0, c.shape[0] - 1))] = True
        labels = np.where(known, labels, -1)
        ext = extend_logits_unknown(30.0 * c, labels, known)
        losses, d_L = extended_ce_loss(ext, labels, known, 30.0, m)
        ref_losses, ref_d = ref_extended(ext, labels, known, 30.0, m)
        assert np.array_equal(losses, ref_losses) and np.array_equal(d_L, ref_d)

    def test_max_tie_routes_to_first_row_of_each_bag(self):
        c = np.array([[0.5, 0.1], [0.5, 0.3], [0.2, 0.3], [0.2, 0.3]])
        agg = aggregate(c, MAX, offsets=[0, 2])
        assert agg.argmax.tolist() == [[0, 1], [2, 2]]
        d = agg.backward(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(d, [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [0.0, 0.0]])

    @pytest.mark.parametrize("offsets", [[1, 2], [0, 2, 2], [0, 4], [0, 3, 1], []])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(EmptyInput):
            aggregate(np.zeros((4, 2)), MAX, offsets=offsets)

    @pytest.mark.parametrize("kind", [MAX, LSE])
    def test_multi_bag_gradient_matches_finite_differences(self, kind):
        rng = Rng.from_seed(8)
        c = rng.floats(7 * 4).reshape(7, 4) * 1.8 - 0.9
        offsets, targets = [0, 3, 4], np.array([2, 0, 3])

        def total_loss(x):
            agg = aggregate(x, kind, 0.3, offsets=offsets)
            return weak_recording_loss(agg.c_rec, targets, 30.0, 0.15)[0].sum()

        agg = aggregate(c, kind, 0.3, offsets=offsets)
        grad = agg.backward(weak_recording_loss(agg.c_rec, targets, 30.0, 0.15)[1])
        h = 1e-7
        for i in range(c.shape[0]):
            for j in range(c.shape[1]):
                up, down = c.copy(), c.copy()
                up[i, j] += h
                down[i, j] -= h
                fd = (total_loss(up) - total_loss(down)) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_schedule_endpoints_and_midpoint():
    sched = Schedule(0.5, 0.1)
    assert sched.at(0.0) == 0.5
    assert sched.at(1.0) == pytest.approx(0.1)
    assert sched.at(0.5) == pytest.approx(0.3)
    assert Schedule.fixed(0.2).at(0.7) == 0.2
