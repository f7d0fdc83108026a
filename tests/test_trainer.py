import numpy as np
import pytest

from conftest import train_recordings
from weaksv.corpus import assign_heldout_split
from weaksv.diarize import PRESETS, apply_diarization
from weaksv.embedder import EmbedderConfig, load_checkpoint, save_checkpoint
from weaksv.errors import ConfigError, NonFiniteGradient
from weaksv.losses import LossConfig, Schedule
from weaksv.trainer import (
    ABLATION_GRID,
    StageConfig,
    ablation_stage1_configs,
    lr_at,
    save_metrics_csv,
    schedule_value,
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
        assert schedule_value(0, 10, sched) == pytest.approx(0.1)
        assert schedule_value(10, 10, sched) == pytest.approx(0.3)

    def test_midpoint(self):
        assert schedule_value(5, 10, Schedule(0.5, 0.1)) == pytest.approx(0.3)


class TestSgdStep:
    def test_first_step(self):
        p = {"w": np.array([1.0])}
        v = {"w": np.zeros(1)}
        sgd_step(p, {"w": np.array([1.0])}, v, lr=0.1, momentum=0.9)
        assert p["w"][0] == pytest.approx(0.9)

    def test_momentum_zero_is_plain_descent(self):
        p = {"w": np.array([0.0])}
        v = {"w": np.zeros(1)}
        for _ in range(3):
            sgd_step(p, {"w": np.array([2.0])}, v, lr=0.5, momentum=0.0)
        assert p["w"][0] == pytest.approx(-3.0)

    def test_two_step_recurrence(self):
        # hand-evaluated: dp = -0.1, then -0.19, total -0.29
        p = {"w": np.array([0.0])}
        v = {"w": np.zeros(1)}
        sgd_step(p, {"w": np.array([1.0])}, v, lr=0.1, momentum=0.9)
        sgd_step(p, {"w": np.array([1.0])}, v, lr=0.1, momentum=0.9)
        assert p["w"][0] == pytest.approx(-0.29)

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(NonFiniteGradient):
            sgd_step({"w": np.zeros(1)}, {"w": np.array([np.nan])},
                     {"w": np.zeros(1)}, 0.1, 0.9)


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

    def test_schedules_logged(self, training_corpus):
        cfg = StageConfig(
            loss=LossConfig(aggregation="lse", margin=Schedule(0.0, 0.2), tau=Schedule(0.5, 0.1)),
            epochs=3, batch_size=24)
        result = train_stage1(training_corpus, cfg, MODEL, seed=5)
        assert result.metrics[0].tau == pytest.approx(0.5)
        assert result.metrics[-1].tau == pytest.approx(0.1)
        assert result.metrics[0].margin == pytest.approx(0.0)
        assert result.metrics[-1].margin == pytest.approx(0.2)
        assert result.metrics[-1].lr == pytest.approx(cfg.lr_final)

    def test_resume_requires_matching_config(self, training_corpus):
        half = train_stage1(training_corpus, StageConfig(loss=STAGE1.loss, epochs=2,
                                                         batch_size=24), MODEL, seed=6)
        with pytest.raises(ConfigError):
            train_stage1(training_corpus, STAGE1, MODEL, seed=6, resume_from=half.checkpoint)

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
    selected = []
    for rec in train_recordings(training_corpus):
        for sid in rec.segment_ids():
            if training_corpus.segments.oracle[sid] == rec.target:
                selected.append((sid, rec.target))
    pool = [sid for rec in train_recordings(training_corpus) for sid in rec.segment_ids()
            if training_corpus.segments.oracle[sid] < 0][:20]
    return selected, pool


STAGE2 = StageConfig(loss=LossConfig(margin=Schedule(0.1, 0.3)), epochs=4, batch_size=32)


class TestTrainStage2:
    def test_loss_decreases(self, training_corpus, stage2_inputs):
        selected, _ = stage2_inputs
        result = train_stage2(training_corpus, selected, STAGE2, MODEL, seed=8)
        losses = [m.loss for m in result.metrics]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_unknown_class_activates_mid_training(self, training_corpus, stage2_inputs):
        selected, pool = stage2_inputs
        cfg = StageConfig(loss=STAGE2.loss, epochs=4, batch_size=32,
                          unknown_start_epoch=2, unknown_mix_fraction=0.1)
        result = train_stage2(training_corpus, selected, cfg, MODEL, seed=9, unknown_pool=pool)
        assert all(np.isfinite(m.loss) for m in result.metrics)
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
        with pytest.raises(ConfigError):
            train_stage2(training_corpus, [], STAGE2, MODEL, seed=11)


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
