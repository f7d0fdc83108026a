"""Optimization for both stages: one loop, two batch losses.

Stage 1 (multi-instance, recording-level labels) and stage 2 (supervised
on self-labeled segments, optionally with the extra unknown class) share
the model, SGD with momentum, the warm-up + exponential-decay learning
rate and the resumable checkpoint. `_fit` is the loop; each stage hands
it its epoch plans and, per batch, the segment ids and a batch loss
(cosines, margin, tau) -> (per-row losses, d loss / d cosines).
`loss_and_grads` is the step's math, which the gradient tests difference.
The parameters, their velocities and their gradients are named views of
one flat vector each, so the SGD update is one pass over each vector.
A `StageConfig` is one [stage1] or [stage2] section of the run
configuration, a field per key. Also: the stage-1 ablation grid.

Runs are deterministic given (corpus, configs, seed): epoch plans derive
their randomness from (seed, epoch), so resuming from an epoch-boundary
checkpoint reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .batching import BagBatch, plan_epoch_stage1, plan_epoch_stage2
from .corpus import Corpus
from .embedder import (Checkpoint, EmbedderConfig, backward_pooled, flatten_params, forward_pooled, init_params,
                       unflatten_params)
from .errors import ConfigError, EmptyInput, NonFiniteGradient
from .fileio import atomic_write
from .losses import (
    MAX,
    Schedule,
    aggregate,
    extend_logits_unknown,
    extended_ce_loss,
    segment_aam_loss,
    weak_recording_loss,
)
from .rng import derive_key, mix64


@dataclass(frozen=True)
class StageConfig:
    # the schema's stage-1 defaults; aggregation and tau act in stage 1 only
    aggregation: str = MAX
    margin: Schedule = Schedule.fixed(0.0)
    tau: Schedule = Schedule(0.5, 0.1)
    scale: float = 30.0
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


def lr_at(step: int, stage: StageConfig, total_steps: int) -> float:
    """Linear 0 -> lr_max over the warm-up, then exponential decay to lr_final.

    The warm-up lasts round(warmup_frac * total_steps) steps.
    """
    warmup = round(stage.warmup_frac * total_steps)
    if step < warmup:
        return stage.lr_max * step / warmup
    if total_steps <= warmup:
        return stage.lr_max
    frac = (step - warmup) / (total_steps - warmup)
    return stage.lr_max * (stage.lr_final / stage.lr_max) ** frac


def sgd_step(p: np.ndarray, g: np.ndarray, v: np.ndarray, lr: float, momentum: float,
             grads: dict[str, np.ndarray]) -> None:
    """In-place momentum update of flat vectors: v <- momentum*v - lr*g; p <- p + v.

    grads holds g's named views. A non-finite g raises NonFiniteGradient,
    naming the first non-finite view, before anything is written.
    """
    if not np.isfinite(g).all():
        name = next(name for name, view in grads.items() if not np.isfinite(view).all())
        raise NonFiniteGradient(f"gradient for {name} is not finite")
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


def recording_batch_loss(kind: str, s: float, targets: np.ndarray, offsets: np.ndarray, sizes: np.ndarray,
                         bag_of_row: np.ndarray):
    """Stage 1: pool each bag's rows per class, then margin cross-entropy per bag.

    targets holds each bag's recording label; offsets, sizes and
    bag_of_row are the planner's bag map (see losses.aggregate).
    """
    def batch_loss(cos: np.ndarray, margin: float, tau: float):
        agg = aggregate(cos, kind, tau, offsets=offsets, sizes=sizes, bag_of_row=bag_of_row)
        losses, d_rec = weak_recording_loss(agg.c_rec, targets, s, margin)
        return losses, agg.backward(d_rec)

    return batch_loss


def segment_batch_loss(s: float, labels: np.ndarray, known: np.ndarray,
                       unknown_col: np.ndarray | None = None):
    """Stage 2: margin cross-entropy per row; rows with known False use the unknown class.

    unknown_col, if given, fixes that class's detached logit column, so a
    finite-difference check can hold it at its base-point value.
    """
    def batch_loss(cos: np.ndarray, margin: float, tau: float):
        if known.all():
            return segment_aam_loss(cos, labels, s, margin)
        if unknown_col is None:
            logits_ext = extend_logits_unknown(s * cos, labels, known)
        else:
            logits_ext = np.concatenate([s * cos, unknown_col[:, None]], axis=1)
        losses, d_logits = extended_ce_loss(logits_ext, labels, known, s, margin)
        return losses, s * d_logits

    return batch_loss


def loss_and_grads(params: dict[str, np.ndarray], xbar: np.ndarray, batch_loss,
                   margin: float, tau: float, grads: dict[str, np.ndarray]) -> float:
    """One training step's math: the batch's mean loss; its gradients go into grads, keyed like params."""
    emb, cache = forward_pooled(xbar, params)
    losses, d_c = batch_loss(emb @ params["P"].T, margin, tau)
    d_c /= losses.shape[0]
    backward_pooled(d_c @ params["P"], cache, params, grads)
    np.matmul(d_c.T, emb, out=grads["P"])
    return float(losses.mean())


def _fit(corpus: Corpus, stage: StageConfig, model: EmbedderConfig, seed: int, tag: str,
         plans: list[list], batch_of, resume_from: Checkpoint | None,
         stop_after_epoch: int | None) -> TrainResult:
    """SGD over the batches of plans[epoch]; batch_of(batch) -> (segment ids, batch loss).

    Only stage 1 pools with a temperature; stage 2 logs tau as 0.
    """
    pooled = corpus.mean_frames()
    total_steps = sum(len(p) for p in plans)
    fingerprint = config_fingerprint(stage, model, seed, tag)
    if resume_from is not None:
        if resume_from.config_hash != fingerprint:
            raise ConfigError("checkpoint was produced under a different configuration")
        n_speakers, step, start_epoch = resume_from.n_speakers, resume_from.step, resume_from.epoch
        theta, velocity = flatten_params(resume_from.params), flatten_params(resume_from.velocities)
    else:
        n_speakers, step, start_epoch = corpus.n_speakers, 0, 0
        theta = flatten_params(init_params(model, n_speakers, derive_key(mix64(seed), tag, "init")))
        velocity = np.zeros_like(theta)
    gradient = np.empty_like(theta)
    params, velocities, grads = (unflatten_params(flat, model, n_speakers) for flat in (theta, velocity, gradient))
    P = params["P"]
    end_epoch = stage.epochs if stop_after_epoch is None else min(stage.epochs, stop_after_epoch)

    denom = max(1, stage.epochs - 1)
    metrics: list[StepMetrics] = []
    for epoch in range(start_epoch, end_epoch):
        margin = stage.margin.at(epoch / denom)
        tau = stage.tau.at(epoch / denom) if tag == "stage1" else 0.0
        for batch in plans[epoch]:
            segment_ids, batch_loss = batch_of(batch)
            loss = loss_and_grads(params, pooled[segment_ids], batch_loss, margin, tau, grads)
            if not np.isfinite(loss):
                raise NonFiniteGradient(f"non-finite loss at step {step + 1}")
            step += 1
            lr = lr_at(step, stage, total_steps)
            sgd_step(theta, gradient, velocity, lr, stage.momentum, grads)
            P /= np.sqrt(np.add.reduce(P * P, axis=1, keepdims=True))  # np.linalg.norm's expression
            metrics.append(StepMetrics(step, epoch, lr, margin, tau, loss))
    return TrainResult(Checkpoint(model, params, velocities, step, end_epoch, fingerprint), metrics)


def plan_stage1(corpus: Corpus, stage: StageConfig, seed: int) -> list[list[BagBatch]]:
    """Every epoch's stage-1 plan: a function of the corpus, batch size, epoch count and seed only."""
    return [plan_epoch_stage1(corpus, stage.batch_size, _epoch_seed(seed, "s1-epoch", epoch))
            for epoch in range(stage.epochs)]


def train_stage1(
    corpus: Corpus,
    stage: StageConfig,
    model: EmbedderConfig,
    seed: int,
    resume_from: Checkpoint | None = None,
    stop_after_epoch: int | None = None,
    plans: list[list[BagBatch]] | None = None,
) -> TrainResult:
    """Multi-instance training on recording-level labels.

    stop_after_epoch pauses at an epoch boundary (schedules still span the
    full configured horizon); resuming from the returned checkpoint
    reproduces the uninterrupted run exactly. plans, if given, is
    plan_stage1(corpus, stage, seed), made once for runs that share it.
    """

    def batch_of(batch):
        return batch.segment_ids, recording_batch_loss(stage.aggregation, stage.scale, batch.targets,
                                                       batch.offsets, batch.sizes, batch.bag_of_row)

    return _fit(corpus, stage, model, seed, "stage1", plan_stage1(corpus, stage, seed) if plans is None else plans,
                batch_of, resume_from, stop_after_epoch)


def train_stage2(
    corpus: Corpus,
    selected: np.ndarray,
    stage: StageConfig,
    model: EmbedderConfig,
    seed: int,
    unknown_pool: np.ndarray | None = None,
    resume_from: Checkpoint | None = None,
    stop_after_epoch: int | None = None,
) -> TrainResult:
    """Fully supervised per-segment training on self-labeled data.

    selected holds (segment_id, label) rows and unknown_pool segment ids,
    as selection.load_selection and load_unknown_pool return them. From
    unknown_start_epoch on (if >= 0 and the pool has rows), batches mix
    unknown-pool rows and the loss switches to the extended cross-entropy
    with the extra prototype-free class. An empty selection raises
    EmptyInput.
    """
    if not len(selected):
        raise EmptyInput("stage-2 selection is empty")

    def plan_epoch(epoch):
        active = 0 <= stage.unknown_start_epoch <= epoch
        return plan_epoch_stage2(selected, stage.batch_size, _epoch_seed(seed, "s2-epoch", epoch),
                                 unknown_pool=unknown_pool,
                                 mix_fraction=stage.unknown_mix_fraction if active else 0.0)

    def batch_of(batch):
        return batch.segment_ids, segment_batch_loss(stage.scale, batch.labels, batch.known)

    return _fit(corpus, stage, model, seed, "stage2", [plan_epoch(e) for e in range(stage.epochs)], batch_of,
                resume_from, stop_after_epoch)


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
    return {name: replace(base, aggregation=kind, tau=tau, margin=Schedule.fixed(margin))
            for name, kind, tau, margin in ABLATION_GRID}


def save_metrics_csv(metrics: list[StepMetrics], path) -> None:
    lines = ["step,epoch,lr,margin,tau,loss"]
    lines += [f"{m.step},{m.epoch},{m.lr!r},{m.margin!r},{m.tau!r},{m.loss!r}" for m in metrics]
    atomic_write(path, "\n".join(lines) + "\n")
