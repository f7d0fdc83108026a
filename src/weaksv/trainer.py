"""Optimization loops for both stages.

SGD with momentum, linear warm-up followed by exponential learning-rate
decay, per-epoch margin and temperature schedules, optional mid-training
activation of the unknown class in stage 2, resumable checkpoints, and
the stage-1 ablation grid definitions.

Runs are deterministic given (corpus, configs, seed): epoch plans derive
their randomness from (seed, epoch), so resuming from an epoch-boundary
checkpoint reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .batching import plan_epoch_stage1, plan_epoch_stage2
from .corpus import Corpus
from .embedder import (
    Checkpoint,
    EmbedderConfig,
    backward_pooled,
    forward_pooled,
    init_params,
    init_prototypes,
)
from .errors import ConfigError, NonFiniteGradient
from .losses import (
    LossConfig,
    Schedule,
    aggregate,
    extend_logits_unknown,
    extended_ce_loss,
    segment_aam_loss,
    weak_recording_loss,
)
from .rng import derive_key, mix64


@dataclass(frozen=True)
class OptimConfig:
    momentum: float = 0.9
    lr_max: float = 0.05
    lr_final: float = 1e-4
    warmup_steps: int = 0
    total_steps: int = 0

    def validate(self) -> None:
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if self.lr_max <= 0 or self.lr_final <= 0 or self.lr_final > self.lr_max:
            raise ConfigError("need 0 < lr_final <= lr_max")
        if not (0 <= self.warmup_steps <= self.total_steps):
            raise ConfigError("warmup_steps must lie in [0, total_steps]")


@dataclass(frozen=True)
class StageConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    epochs: int = 30
    batch_size: int = 64
    lr_max: float = 0.05
    lr_final: float = 1e-4
    warmup_frac: float = 0.05
    momentum: float = 0.9
    # stage-2 extras; unknown_start_epoch < 0 keeps the extra class off
    unknown_start_epoch: int = -1
    unknown_mix_fraction: float = 0.1


@dataclass
class StepMetrics:
    step: int
    epoch: int
    lr: float
    margin: float
    tau: float
    loss: float


def lr_at(step: int, cfg: OptimConfig) -> float:
    """Linear 0 -> lr_max over the warm-up, then exponential decay to lr_final."""
    if step < cfg.warmup_steps:
        return cfg.lr_max * step / cfg.warmup_steps
    if cfg.total_steps <= cfg.warmup_steps:
        return cfg.lr_max
    frac = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return cfg.lr_max * (cfg.lr_final / cfg.lr_max) ** frac


def schedule_value(epoch: int, total_epochs: int, schedule: Schedule) -> float:
    """Linear interpolation of a schedule across an epoch range."""
    if total_epochs <= 0:
        return schedule.end
    return schedule.at(epoch / total_epochs)


def sgd_step(
    arrays: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocities: dict[str, np.ndarray],
    lr: float,
    momentum: float,
) -> None:
    """In-place momentum update: v <- momentum*v - lr*g; p <- p + v."""
    for name, p in arrays.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} is not finite")
        v = velocities[name]
        v *= momentum
        v -= lr * g
        p += v


def config_fingerprint(stage: StageConfig, model: EmbedderConfig, seed: int, tag: str) -> bytes:
    text = f"{tag}|{stage!r}|{model!r}|seed={seed}"
    return hashlib.sha256(text.encode("utf-8")).digest()


def _epoch_seed(seed: int, tag: str, epoch: int) -> int:
    return derive_key(mix64(seed & ((1 << 64) - 1)), tag, epoch)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list[StepMetrics]


class _Optimizer:
    """Shared state-holder for both stage loops."""

    def __init__(
        self,
        model: EmbedderConfig,
        n_speakers: int,
        stage: StageConfig,
        seed: int,
        tag: str,
        total_steps: int,
        resume_from: Checkpoint | None,
    ):
        self.fingerprint = config_fingerprint(stage, model, seed, tag)
        if resume_from is not None:
            if resume_from.config_hash != self.fingerprint:
                raise ConfigError("checkpoint was produced under a different configuration")
            ck = resume_from.copy()
            self.params, self.prototypes = ck.params, ck.prototypes
            self.velocities = ck.velocities
            self.step, self.start_epoch = ck.step, ck.epoch
        else:
            self.params = init_params(model, derive_key(mix64(seed), tag, "init"))
            self.prototypes = init_prototypes(n_speakers, model.emb_dim, derive_key(mix64(seed), tag, "init"))
            self.velocities = None
            self.step, self.start_epoch = 0, 0
        self.arrays = {"W1": self.params.W1, "b1": self.params.b1,
                       "W2": self.params.W2, "b2": self.params.b2, "P": self.prototypes}
        if self.velocities is None:
            self.velocities = {k: np.zeros_like(v) for k, v in self.arrays.items()}
        self.optim = OptimConfig(
            momentum=stage.momentum, lr_max=stage.lr_max, lr_final=stage.lr_final,
            warmup_steps=round(stage.warmup_frac * total_steps), total_steps=total_steps)
        self.optim.validate()
        self.model = model

    def apply(self, grads: dict[str, np.ndarray]) -> float:
        self.step += 1
        lr = lr_at(self.step, self.optim)
        sgd_step(self.arrays, grads, self.velocities, lr, self.optim.momentum)
        self.prototypes /= np.linalg.norm(self.prototypes, axis=1, keepdims=True)
        return lr

    def checkpoint(self, epoch: int) -> Checkpoint:
        return Checkpoint(self.model, self.params, self.prototypes,
                          self.velocities, self.step, epoch, self.fingerprint).copy()


def train_stage1(
    corpus: Corpus,
    stage: StageConfig,
    model: EmbedderConfig,
    seed: int,
    resume_from: Checkpoint | None = None,
    stop_after_epoch: int | None = None,
) -> TrainResult:
    """Multi-instance training on recording-level labels.

    stop_after_epoch pauses at an epoch boundary (schedules still span the
    full configured horizon); resuming from the returned checkpoint
    reproduces the uninterrupted run exactly.
    """
    stage.loss.validate()
    pooled, row_of = corpus.mean_frames()
    plans = [plan_epoch_stage1(corpus, stage.batch_size, _epoch_seed(seed, "s1-epoch", e))
             for e in range(stage.epochs)]
    total_steps = sum(len(p) for p in plans)
    opt = _Optimizer(model, corpus.n_speakers, stage, seed, "stage1", total_steps, resume_from)
    end_epoch = stage.epochs if stop_after_epoch is None else min(stage.epochs, stop_after_epoch)

    s = stage.loss.scale
    denom = max(1, stage.epochs - 1)
    metrics: list[StepMetrics] = []
    for epoch in range(opt.start_epoch, end_epoch):
        margin = schedule_value(epoch, denom, stage.loss.margin)
        tau = schedule_value(epoch, denom, stage.loss.tau)
        for batch in plans[epoch]:
            rows = [row_of[sid] for bag in batch.bags for sid in bag.segment_ids]
            emb, cache = forward_pooled(pooled[rows], opt.params)
            c_all = emb @ opt.prototypes.T
            sizes = [bag.size for bag in batch.bags]
            agg = aggregate(c_all, stage.loss.aggregation, tau,
                            offsets=np.cumsum([0] + sizes[:-1]))
            targets = np.array([bag.target for bag in batch.bags])
            losses, d_rec = weak_recording_loss(agg.c_rec, targets, s, margin)
            n_bags = len(batch.bags)
            loss_value = float(losses.mean())
            if not np.isfinite(loss_value):
                raise NonFiniteGradient(f"non-finite loss at step {opt.step + 1}")
            d_c = agg.backward(d_rec)
            d_c /= n_bags
            grads = backward_pooled(d_c @ opt.prototypes, cache, opt.params)
            grads["P"] = d_c.T @ emb
            lr = opt.apply(grads)
            metrics.append(StepMetrics(opt.step, epoch, lr, margin, tau, loss_value))
    return TrainResult(opt.checkpoint(end_epoch), metrics)


def train_stage2(
    corpus: Corpus,
    selected: list[tuple[int, int]],
    stage: StageConfig,
    model: EmbedderConfig,
    seed: int,
    unknown_pool: list[int] | None = None,
    resume_from: Checkpoint | None = None,
    stop_after_epoch: int | None = None,
) -> TrainResult:
    """Fully supervised per-segment training on self-labeled data.

    From unknown_start_epoch on (if >= 0 and a pool is given), batches mix
    unknown-pool rows and the loss switches to the extended cross-entropy
    with the extra prototype-free class.
    """
    stage.loss.validate()
    if not selected:
        raise ConfigError("stage-2 selection is empty")
    pooled, row_of = corpus.mean_frames()

    def unknown_active(epoch: int) -> bool:
        return bool(unknown_pool) and stage.unknown_start_epoch >= 0 and epoch >= stage.unknown_start_epoch

    plans = [
        plan_epoch_stage2(
            selected, stage.batch_size, _epoch_seed(seed, "s2-epoch", e),
            unknown_pool=unknown_pool if unknown_active(e) else None,
            mix_fraction=stage.unknown_mix_fraction if unknown_active(e) else 0.0)
        for e in range(stage.epochs)
    ]
    total_steps = sum(len(p) for p in plans)
    opt = _Optimizer(model, corpus.n_speakers, stage, seed, "stage2", total_steps, resume_from)
    end_epoch = stage.epochs if stop_after_epoch is None else min(stage.epochs, stop_after_epoch)

    s = stage.loss.scale
    denom = max(1, stage.epochs - 1)
    metrics: list[StepMetrics] = []
    for epoch in range(opt.start_epoch, end_epoch):
        margin = schedule_value(epoch, denom, stage.loss.margin)
        for batch in plans[epoch]:
            rows = [row_of[r.segment_id] for r in batch.rows]
            emb, cache = forward_pooled(pooled[rows], opt.params)
            c_all = emb @ opt.prototypes.T
            known_mask = np.array([r.known for r in batch.rows])
            labels = np.array([r.label for r in batch.rows])
            if known_mask.all():
                losses, d_c = segment_aam_loss(c_all, labels, s, margin)
            else:
                logits_ext = extend_logits_unknown(s * c_all, labels, known_mask)
                losses, d_logits = extended_ce_loss(logits_ext, labels, known_mask, s, margin)
                d_c = s * d_logits
            loss_value = float(losses.mean())
            if not np.isfinite(loss_value):
                raise NonFiniteGradient(f"non-finite loss at step {opt.step + 1}")
            d_c /= len(batch.rows)
            grads = backward_pooled(d_c @ opt.prototypes, cache, opt.params)
            grads["P"] = d_c.T @ emb
            lr = opt.apply(grads)
            metrics.append(StepMetrics(opt.step, epoch, lr, margin, 0.0, loss_value))
    return TrainResult(opt.checkpoint(end_epoch), metrics)


# ---------------------------------------------------------------------------
# Stage-1 ablation grid
# ---------------------------------------------------------------------------

# (name, aggregation, tau schedule, margin): max vs. LSE with fixed and
# decaying temperature, each with and without margin
ABLATION_GRID: list[tuple[str, str, Schedule, float]] = [
    ("m1", "max", Schedule(0.5, 0.1), 0.1),
    ("m2", "lse", Schedule.fixed(0.5), 0.1),
    ("m3", "lse", Schedule(0.5, 0.1), 0.1),
    ("m4", "max", Schedule(0.5, 0.1), 0.0),
    ("m5", "lse", Schedule.fixed(0.5), 0.0),
    ("m6", "lse", Schedule(0.5, 0.1), 0.0),
]


def ablation_stage1_configs(base: StageConfig) -> dict[str, StageConfig]:
    """The six stage-1 variants: aggregation x margin grid."""
    out = {}
    for name, kind, tau, margin in ABLATION_GRID:
        loss = replace(base.loss, aggregation=kind, tau=tau, margin=Schedule.fixed(margin))
        out[name] = replace(base, loss=loss)
    return out


def save_metrics_csv(metrics: list[StepMetrics], path) -> None:
    lines = ["step,epoch,lr,margin,tau,loss"]
    lines += [f"{m.step},{m.epoch},{m.lr!r},{m.margin!r},{m.tau!r},{m.loss!r}" for m in metrics]
    p = Path(path)
    tmp = p.with_name("." + p.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(p)
