import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bag_map, train_recordings
from weaksv import trainer
from weaksv.batching import plan_epoch_stage1, plan_epoch_stage2
from weaksv.corpus import UNKNOWN, assign_heldout_split
from weaksv.diarize import PRESETS, apply_diarization
from weaksv.embedder import (
    PARAM_NAMES,
    Checkpoint,
    EmbedderConfig,
    flatten_params,
    init_params,
    load_checkpoint,
    save_checkpoint,
    unflatten_params,
)
from weaksv.errors import ConfigError, EmptyInput, NonFiniteGradient
from weaksv.losses import LossConfig, Schedule
from weaksv.rng import derive_key, mix64
from weaksv.trainer import (
    ABLATION_GRID,
    StageConfig,
    StepMetrics,
    TrainResult,
    ablation_stage1_configs,
    config_fingerprint,
    lr_at,
    plan_stage1,
    recording_batch_loss,
    save_metrics_csv,
    segment_batch_loss,
    sgd_step,
    train_stage1,
    train_stage2,
)

MODEL = EmbedderConfig(feat_dim=20, hidden_dim=24, emb_dim=12)


class TestLrSchedule:
    # 1100 steps with a 100-step warm-up
    CFG = StageConfig(momentum=0.9, lr_max=0.2, lr_final=5e-5, warmup_frac=1 / 11)
    TOTAL = 1100

    def test_peak_at_warmup_end(self):
        assert lr_at(100, self.CFG, self.TOTAL) == pytest.approx(0.2)

    def test_final_value(self):
        assert lr_at(1100, self.CFG, self.TOTAL) == pytest.approx(5e-5)

    def test_decay_midpoint_closed_form(self):
        # closed form: lr_max * (lr_final / lr_max) ** 0.5
        got = lr_at(600, self.CFG, self.TOTAL)
        assert got == pytest.approx(0.2 * (2.5e-4) ** 0.5, rel=1e-12)
        assert got == pytest.approx(3.162e-3, rel=1e-3)

    def test_linear_warmup(self):
        assert lr_at(0, self.CFG, self.TOTAL) == 0.0
        assert lr_at(50, self.CFG, self.TOTAL) == pytest.approx(0.1)

    def test_monotone_decay_after_peak(self):
        values = [lr_at(s, self.CFG, self.TOTAL) for s in range(100, 1101)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestScheduleValue:
    def test_endpoints(self):
        sched = Schedule(0.1, 0.3)
        assert sched.at(0.0) == pytest.approx(0.1)
        assert sched.at(1.0) == pytest.approx(0.3)

    def test_midpoint(self):
        assert Schedule(0.5, 0.1).at(0.5) == pytest.approx(0.3)


def _sgd(p, g, v, lr, momentum):
    """sgd_step on one-parameter flat vectors."""
    sgd_step(p, g, v, lr, momentum, {"w": g})


class TestSgdStep:
    def test_first_step(self):
        p, v = np.array([1.0]), np.zeros(1)
        _sgd(p, np.array([1.0]), v, lr=0.1, momentum=0.9)
        assert p[0] == pytest.approx(0.9)

    def test_momentum_zero_is_plain_descent(self):
        p, v = np.array([0.0]), np.zeros(1)
        for _ in range(3):
            _sgd(p, np.array([2.0]), v, lr=0.5, momentum=0.0)
        assert p[0] == pytest.approx(-3.0)

    def test_two_step_recurrence(self):
        # hand-evaluated: dp = -0.1, then -0.19, total -0.29
        p, v = np.array([0.0]), np.zeros(1)
        _sgd(p, np.array([1.0]), v, lr=0.1, momentum=0.9)
        _sgd(p, np.array([1.0]), v, lr=0.1, momentum=0.9)
        assert p[0] == pytest.approx(-0.29)

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(NonFiniteGradient):
            _sgd(np.zeros(1), np.array([np.nan]), np.zeros(1), 0.1, 0.9)

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_nonfinite_gradient_names_first_and_writes_nothing(self, name):
        model = EmbedderConfig(feat_dim=3, hidden_dim=4, emb_dim=2)
        p = flatten_params(init_params(model, 3, seed=1))
        v = np.linspace(-1.0, 1.0, p.size)
        g = np.ones_like(p)
        grads = unflatten_params(g, model, 3)
        grads[name].flat[-1] = np.nan
        for later in PARAM_NAMES[PARAM_NAMES.index(name) + 1:]:  # a later inf must not be the one named
            grads[later].flat[0] = np.inf
        p0, v0, g0 = p.copy(), v.copy(), g.copy()
        with pytest.raises(NonFiniteGradient, match=f"gradient for {name} is not finite"):
            sgd_step(p, g, v, 0.1, 0.9, grads)
        assert np.array_equal(p, p0) and np.array_equal(v, v0)
        assert np.array_equal(g, g0, equal_nan=True)


@pytest.fixture(scope="module")
def training_corpus(small_corpus):
    corpus = assign_heldout_split(small_corpus, 0.2, seed=1)
    return apply_diarization(corpus, PRESETS["baseline"])


STAGE1 = StageConfig(loss=LossConfig(), epochs=4, batch_size=24)


class TestTrainStage1:
    def test_loss_decreases(self, training_corpus):
        result = train_stage1(training_corpus, STAGE1, MODEL, seed=3)
        losses = [m.loss for m in result.metrics]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])
        assert all(np.isfinite(l) for l in losses)

    def test_deterministic(self, training_corpus):
        a = train_stage1(training_corpus, STAGE1, MODEL, seed=3)
        b = train_stage1(training_corpus, STAGE1, MODEL, seed=3)
        assert np.array_equal(a.checkpoint.params["W1"], b.checkpoint.params["W1"])
        assert np.array_equal(a.checkpoint.params["P"], b.checkpoint.params["P"])
        assert [m.loss for m in a.metrics] == [m.loss for m in b.metrics]

    def test_prototypes_stay_unit_norm(self, training_corpus):
        result = train_stage1(training_corpus, STAGE1, MODEL, seed=4)
        norms = np.linalg.norm(result.checkpoint.params["P"], axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_schedules_logged(self, training_corpus, stage2_inputs):
        cfg = StageConfig(
            loss=LossConfig(aggregation="lse", margin=Schedule(0.0, 0.2), tau=Schedule(0.5, 0.1)),
            epochs=3, batch_size=24)
        result = train_stage1(training_corpus, cfg, MODEL, seed=5)
        assert result.metrics[0].tau == pytest.approx(0.5)
        assert result.metrics[-1].tau == pytest.approx(0.1)
        assert result.metrics[0].margin == pytest.approx(0.0)
        assert result.metrics[-1].margin == pytest.approx(0.2)
        assert result.metrics[-1].lr == pytest.approx(cfg.lr_final)
        # stage 2 trains on its own margin schedule, 0.1 -> 0.3
        result = train_stage2(training_corpus, stage2_inputs[0], STAGE2, MODEL, seed=5)
        assert result.metrics[0].margin == pytest.approx(0.1)
        assert result.metrics[-1].margin == pytest.approx(0.3)

    def test_resume_requires_matching_config(self, training_corpus):
        half_cfg = StageConfig(loss=STAGE1.loss, epochs=2, batch_size=24)
        half = train_stage1(training_corpus, half_cfg, MODEL, seed=6)
        # another epoch count, then another seed, than the checkpoint was trained under
        for stage, seed in ((STAGE1, 6), (half_cfg, 7)):
            with pytest.raises(ConfigError):
                train_stage1(training_corpus, stage, MODEL, seed=seed, resume_from=half.checkpoint)

    def test_resume_from_checkpoint_file(self, training_corpus, tmp_path):
        # train 4 epochs in one go vs. 2 + (checkpoint round trip) + 2
        full = train_stage1(training_corpus, STAGE1, MODEL, seed=7)
        first = train_stage1(training_corpus, STAGE1, MODEL, seed=7, stop_after_epoch=2)
        save_checkpoint(first.checkpoint, tmp_path / "half.ckpt")
        resumed = train_stage1(training_corpus, STAGE1, MODEL, seed=7,
                               resume_from=load_checkpoint(tmp_path / "half.ckpt"))
        assert np.array_equal(full.checkpoint.params["W1"], resumed.checkpoint.params["W1"])
        assert np.array_equal(full.checkpoint.params["b2"], resumed.checkpoint.params["b2"])
        assert np.array_equal(full.checkpoint.params["P"], resumed.checkpoint.params["P"])
        assert full.checkpoint.step == resumed.checkpoint.step


@pytest.fixture(scope="module")
def stage2_inputs(training_corpus):
    """The oracle-correct (segment_id, label) rows and 20 noise segment ids, as the arrays stage 2 reads."""
    selected = []
    for rec in train_recordings(training_corpus):
        for sid in rec.segment_ids():
            if training_corpus.segments.oracle[sid] == rec.target:
                selected.append((sid, rec.target))
    pool = [sid for rec in train_recordings(training_corpus) for sid in rec.segment_ids()
            if training_corpus.segments.oracle[sid] < 0][:20]
    return np.array(selected, dtype=np.int64), np.array(pool, dtype=np.int64)


STAGE2 = StageConfig(loss=LossConfig(margin=Schedule(0.1, 0.3)), epochs=4, batch_size=32)


class TestTrainStage2:
    def test_loss_decreases(self, training_corpus, stage2_inputs):
        selected, _ = stage2_inputs
        result = train_stage2(training_corpus, selected, STAGE2, MODEL, seed=8)
        losses = [m.loss for m in result.metrics]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_unknown_class_activates_mid_training(self, training_corpus, stage2_inputs, monkeypatch):
        selected, pool = stage2_inputs
        cfg = StageConfig(loss=STAGE2.loss, epochs=4, batch_size=32,
                          unknown_start_epoch=2, unknown_mix_fraction=0.1)
        plans = []  # each epoch's plan as training receives it
        planner = trainer.plan_epoch_stage2
        monkeypatch.setattr(trainer, "plan_epoch_stage2",
                            lambda *args, **kwargs: plans.append(planner(*args, **kwargs)) or plans[-1])
        result = train_stage2(training_corpus, selected, cfg, MODEL, seed=9, unknown_pool=pool)
        assert all(np.isfinite(m.loss) for m in result.metrics)
        mixed = round(cfg.unknown_mix_fraction * cfg.batch_size)  # 3 unknown rows in every batch from epoch 2
        assert len(plans) == cfg.epochs
        for epoch, plan in enumerate(plans):
            want = mixed if epoch >= cfg.unknown_start_epoch else 0
            assert [int((~batch.known).sum()) for batch in plan] == [want] * len(plan), epoch
        # epoch sizes change once mixing starts: fewer known rows per batch
        b0 = sum(1 for m in result.metrics if m.epoch == 0)
        b2 = sum(1 for m in result.metrics if m.epoch == 2)
        assert b2 >= b0

    def test_unknown_off_ignores_pool(self, training_corpus, stage2_inputs):
        selected, pool = stage2_inputs
        no_pool = train_stage2(training_corpus, selected, STAGE2, MODEL, seed=10)
        with_pool_off = train_stage2(training_corpus, selected, STAGE2, MODEL, seed=10,
                                     unknown_pool=pool)
        assert np.array_equal(no_pool.checkpoint.params["W1"], with_pool_off.checkpoint.params["W1"])

    def test_empty_selection_rejected(self, training_corpus):
        with pytest.raises(EmptyInput):
            train_stage2(training_corpus, np.empty((0, 2), dtype=np.int64), STAGE2, MODEL, seed=11)


@pytest.mark.parametrize("known", [[True] * 6, [True, False, True, True, False, True]],
                         ids=["plain", "extended"])
def test_segment_margin_raises_each_known_row_loss(known):
    rng = np.random.default_rng(0)
    cos = rng.uniform(-0.5, 0.5, size=(6, 4))
    known = np.array(known)
    labels = np.where(known, np.arange(6) % 4, UNKNOWN)
    batch_loss = segment_batch_loss(30.0, labels, known)
    with_margin, _ = batch_loss(cos, 0.2, 0.0)
    without, _ = batch_loss(cos, 0.0, 0.0)
    assert (with_margin[known] > without[known]).all()


def test_ablation_grid_covers_all_variants():
    cfgs = ablation_stage1_configs(StageConfig())
    assert list(cfgs) == ["m1", "m2", "m3", "m4", "m5", "m6"]
    assert cfgs["m1"].loss.aggregation == "max" and cfgs["m1"].loss.margin.start == 0.1
    assert cfgs["m4"].loss.aggregation == "max" and cfgs["m4"].loss.margin.start == 0.0
    assert cfgs["m2"].loss.tau == Schedule.fixed(0.5)
    assert cfgs["m3"].loss.tau == Schedule(0.5, 0.1)
    assert len(ABLATION_GRID) == 6


def test_metrics_csv_round_trip(tmp_path, training_corpus):
    result = train_stage1(training_corpus, StageConfig(epochs=1, batch_size=24), MODEL, seed=12)
    save_metrics_csv(result.metrics, tmp_path / "metrics.csv")
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,epoch,lr,margin,tau,loss"
    assert len(lines) == len(result.metrics) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[5]) == result.metrics[0].loss


# ---------------------------------------------------------------------------
# Reference loop: the training step as a dict per parameter
# ---------------------------------------------------------------------------


def _reference_forward(xbar, params):
    a1 = xbar @ params["W1"].T + params["b1"]
    h = np.maximum(a1, 0.0)
    z = h @ params["W2"].T + params["b2"]
    norms = np.linalg.norm(z, axis=1)
    emb = z / norms[:, None]
    return emb, (xbar, a1, h, norms)


def _reference_backward(d_emb, emb, cache, params):
    xbar, a1, h, norms = cache
    radial = np.sum(d_emb * emb, axis=1, keepdims=True)
    dz = (d_emb - radial * emb) / norms[:, None]
    da1 = (dz @ params["W2"]) * (a1 > 0.0)
    return {"W1": da1.T @ xbar, "b1": da1.sum(axis=0), "W2": dz.T @ h, "b2": dz.sum(axis=0)}


def _reference_sgd_step(arrays, grads, velocities, lr, momentum):
    for name, p in arrays.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
        v = velocities[name]
        v *= momentum
        v -= lr * g
        p += v


def reference_fit(corpus, stage, model, seed, tag, plans, batch_of):
    """The uninterrupted training loop, one array per parameter and per velocity."""
    pooled = corpus.mean_frames()
    total_steps = sum(len(p) for p in plans)
    params = init_params(model, corpus.n_speakers, derive_key(mix64(seed), tag, "init"))
    velocities = {k: np.zeros_like(v) for k, v in params.items()}
    step, metrics = 0, []
    denom = max(1, stage.epochs - 1)
    for epoch in range(stage.epochs):
        margin = stage.loss.margin.at(epoch / denom)
        tau = stage.loss.tau.at(epoch / denom) if tag == "stage1" else 0.0
        for batch in plans[epoch]:
            segment_ids, batch_loss = batch_of(batch)
            emb, cache = _reference_forward(pooled[segment_ids], params)
            losses, d_c = batch_loss(emb @ params["P"].T, margin, tau)
            d_c /= losses.shape[0]
            grads = _reference_backward(d_c @ params["P"], emb, cache, params)
            grads["P"] = d_c.T @ emb
            step += 1
            lr = lr_at(step, stage, total_steps)
            _reference_sgd_step(params, grads, velocities, lr, stage.momentum)
            P = params["P"]
            P /= np.linalg.norm(P, axis=1, keepdims=True)
            metrics.append(StepMetrics(step, epoch, lr, margin, tau, float(losses.mean())))
    fingerprint = config_fingerprint(stage, model, seed, tag)
    return TrainResult(Checkpoint(model, params, velocities, step, stage.epochs, fingerprint), metrics)


def reference_stage1(corpus, stage, model, seed):
    """Stage 1 with each batch's bag map derived from its offsets alone."""
    plans = [plan_epoch_stage1(corpus, stage.batch_size, trainer._epoch_seed(seed, "s1-epoch", e))
             for e in range(stage.epochs)]
    return reference_fit(corpus, stage, model, seed, "stage1", plans, lambda b: (b.segment_ids, recording_batch_loss(
        stage.loss.aggregation, stage.loss.scale, b.targets, **bag_map(np.diff(b.offsets, append=b.size)))))


def reference_stage2(corpus, selected, stage, model, seed, unknown_pool):
    def plan(epoch):
        active = len(unknown_pool) > 0 and 0 <= stage.unknown_start_epoch <= epoch
        return plan_epoch_stage2(selected, stage.batch_size, trainer._epoch_seed(seed, "s2-epoch", epoch),
                                 unknown_pool=unknown_pool if active else None,
                                 mix_fraction=stage.unknown_mix_fraction if active else 0.0)

    return reference_fit(corpus, stage, model, seed, "stage2", [plan(e) for e in range(stage.epochs)],
                         lambda b: (b.segment_ids, segment_batch_loss(stage.loss.scale, b.labels, b.known)))


def _ckpt_bytes(ckpt):
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(ckpt, Path(tmp) / "run.ckpt")
        return (Path(tmp) / "run.ckpt").read_bytes()


def _assert_same_run(got, want):
    assert _ckpt_bytes(got.checkpoint) == _ckpt_bytes(want.checkpoint)
    assert got.metrics == want.metrics


def _resumed(train, resume_epoch):
    """train(stop_after_epoch=resume_epoch), its checkpoint through a file, then the rest of the run."""
    first = train(stop_after_epoch=resume_epoch)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(first.checkpoint, Path(tmp) / "half.ckpt")
        rest = train(resume_from=load_checkpoint(Path(tmp) / "half.ckpt"))
    return TrainResult(rest.checkpoint, first.metrics + rest.metrics)


class TestMatchesReferenceLoop:
    @settings(max_examples=16, deadline=None)
    @given(st.sampled_from(["max", "lse"]), st.sampled_from([0.0, 0.2]),
           st.sampled_from([Schedule.fixed(0.5), Schedule(0.5, 0.1)]), st.integers(16, 40),
           st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 2]))
    def test_stage1(self, training_corpus, kind, margin, tau, batch_size, seed, resume_epoch):
        stage = StageConfig(loss=LossConfig(aggregation=kind, margin=Schedule.fixed(margin), tau=tau),
                            epochs=3, batch_size=batch_size)
        want = reference_stage1(training_corpus, stage, MODEL, seed)
        if resume_epoch is None:
            got = train_stage1(training_corpus, stage, MODEL, seed)
        else:
            got = _resumed(lambda **kw: train_stage1(training_corpus, stage, MODEL, seed, **kw), resume_epoch)
        _assert_same_run(got, want)
        # plans made once and handed in, as the ablation grid does
        _assert_same_run(train_stage1(training_corpus, stage, MODEL, seed,
                                      plans=plan_stage1(training_corpus, stage, seed)), want)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([-1, 0, 2]), st.sampled_from([0.0, 0.2]), st.integers(16, 40),
           st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 3]))
    def test_stage2(self, training_corpus, stage2_inputs, unknown_start, margin, batch_size, seed, resume_epoch):
        selected, pool = stage2_inputs
        stage = StageConfig(loss=LossConfig(margin=Schedule(margin, margin + 0.1)), epochs=4,
                            batch_size=batch_size, unknown_start_epoch=unknown_start)
        want = reference_stage2(training_corpus, selected, stage, MODEL, seed, pool)
        if resume_epoch is None:
            got = train_stage2(training_corpus, selected, stage, MODEL, seed, unknown_pool=pool)
        else:
            got = _resumed(lambda **kw: train_stage2(training_corpus, selected, stage, MODEL, seed,
                                                     unknown_pool=pool, **kw), resume_epoch)
        _assert_same_run(got, want)
