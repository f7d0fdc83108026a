"""Per-layer tracing from outside the program.

Every traced function is replaced, for the duration of one pass, at the
attribute where its caller looks it up: a name imported into a module
(`weaksv.trainer.aggregate`), a module attribute the CLI reaches through
its alias (`weaksv.selection.self_label`), or a method on a class
(`Corpus.recording`). A wrapper records calls, total time and self time
(total minus the time of traced calls made inside it); a hook may read
the arguments and result to count work. `Tracer.close` puts every
original object back. Nothing in `weaksv` itself changes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _last10(result) -> float:
    losses = [m.loss for m in result.metrics[-10:]]
    return sum(losses) / len(losses)


# Hooks count work from a traced call's arguments and result.

def _segments(tracer, args, corpus):
    tracer.counts["synth.segments"] += len(corpus.segments)


def _clusters(tracer, args, corpus):
    tracer.counts["diarize.clusters"] += sum(len(r.clusters) for r in corpus.recordings)


def _train1(tracer, args, result):
    tracer.counts["trainer.steps1"] += len(result.metrics)
    tracer.last10["train1"].append(_last10(result))


def _train2(tracer, args, result):
    tracer.counts["trainer.steps2"] += len(result.metrics)
    tracer.last10["train2"].append(_last10(result))


def _bags(tracer, args, plan):
    tracer.counts["batching.bags"] += sum(len(batch.bags) for batch in plan)
    tracer.counts["batching.bag_segments"] += sum(bag.size for batch in plan for bag in batch.bags)


def _rows(tracer, args, result):
    tracer.counts["embedder.forward_rows"] += len(args[0])


def _scored(tracer, args, result):
    # self_label and the unknown pool each embed every training segment
    _rows(tracer, args, result)
    tracer.counts["selection.scored"] += len(args[0])


def _selected(tracer, args, result):
    tracer.counts["selection.selected"] += len(result.selected)


def _pool(tracer, args, pool):
    tracer.counts["selection.pool"] += len(pool.segment_ids)


# (owner, attribute, span name, hook). The owner is a module path, or
# "module:Class" for a method. Spans of one name add up across sites.
PATCHES = [
    ("weaksv.cli", "generate_corpus", "synth.generate", _segments),
    ("weaksv.cli", "validate_corpus", "corpus.validate", None),
    ("weaksv.cli", "save_manifest", "corpus.save_manifest", None),
    ("weaksv.cli", "load_manifest", "corpus.load_manifest", None),
    ("weaksv.cli", "apply_diarization", "diarize.apply", _clusters),
    ("weaksv.cli", "train_stage1", "trainer.stage1", _train1),
    ("weaksv.cli", "train_stage2", "trainer.stage2", _train2),
    ("weaksv.cli", "save_checkpoint", "embedder.ckpt_io", None),
    ("weaksv.cli", "load_checkpoint", "embedder.ckpt_io", None),
    ("weaksv.trainer", "plan_epoch_stage1", "batching.plan1", _bags),
    ("weaksv.trainer", "plan_epoch_stage2", "batching.plan2", None),
    ("weaksv.trainer", "forward_pooled", "embedder.forward", _rows),
    ("weaksv.selection", "forward_pooled", "embedder.forward", _scored),
    ("weaksv.metrics", "forward_pooled", "embedder.forward", _rows),
    ("weaksv.trainer", "backward_pooled", "embedder.backward", None),
    ("weaksv.trainer", "sgd_step", "trainer.sgd", None),
    ("weaksv.trainer", "aggregate", "losses.aggregate", None),
    ("weaksv.trainer", "weak_recording_loss", "losses.recording_loss", None),
    ("weaksv.trainer", "segment_aam_loss", "losses.segment_loss", None),
    ("weaksv.trainer", "extended_ce_loss", "losses.extended_ce", None),
    ("weaksv.trainer", "extend_logits_unknown", "losses.extend_unknown", None),
    ("weaksv.selection", "self_label", "selection.self_label", _selected),
    ("weaksv.selection", "select_unknown_pool", "selection.unknown_pool", _pool),
    ("weaksv.metrics", "score_trials", "metrics.score_trials", None),
    ("weaksv.metrics", "compute_eer", "metrics.eer", None),
    ("weaksv.metrics", "compute_mindcf", "metrics.eer", None),
    ("weaksv.metrics", "make_report", "metrics.report", None),
    ("weaksv.corpus:Corpus", "mean_frames", "corpus.mean_frames", None),
    ("weaksv.corpus:Corpus", "recording", "corpus.recording", None),
]

# Generator primitives are only counted: timing each of them would cost
# more than the draw itself.
COUNTED = [
    ("weaksv.rng:Rng", "u64", "rng.calls"),
    ("weaksv.rng:Rng", "_block", "rng.calls"),
]


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def patch_points() -> list[tuple[object, str]]:
    """Every (owner object, attribute) the tracer replaces."""
    return [(resolve(owner), attr) for owner, attr, *_ in PATCHES + COUNTED]


class Tracer:
    """Spans and counts of one traced pass; install() patches, close() restores."""

    def __init__(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: dict[str, int] = defaultdict(int)
        self.last10: dict[str, list[float]] = defaultdict(list)
        self._stack: list[float] = []  # time of traced children, per open span
        self._saved: list[tuple[object, str, object]] = []

    def timed(self, name: str, fn, hook=None):
        stats = self.spans[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner: str, attr: str, make) -> None:
        obj = resolve(owner)
        # read the class __dict__ so the plain function, not a bound
        # method, is what gets wrapped and later put back
        original = vars(obj)[attr]
        self._saved.append((obj, attr, original))
        setattr(obj, attr, make(original))

    def install(self) -> "Tracer":
        try:
            for owner, attr, name, hook in PATCHES:
                self._replace(owner, attr, lambda fn, n=name, h=hook: self.timed(n, fn, h))
            for owner, attr, name in COUNTED:
                self._replace(owner, attr, lambda fn, n=name: self.counted(n, fn))
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)


def layer_metrics(tracer: Tracer, stage_spans: list[str]) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    stage_spans names the spans the harness opened around each CLI stage;
    their self time is the CLI's own work.
    """
    sp, c = tracer.spans, tracer.counts

    def total(*names):
        return sum(sp[n][1] for n in names)

    def self_time(*names):
        return sum(sp[n][2] for n in names)

    def calls(*names):
        return sum(sp[n][0] for n in names)

    steps1, steps2 = c["trainer.steps1"], c["trainer.steps2"]
    loss_calls = calls("losses.aggregate", "losses.recording_loss", "losses.segment_loss",
                       "losses.extended_ce")

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "synth.generate_s": total("synth.generate"),
        "synth.segments": c["synth.segments"],
        "rng.calls": c["rng.calls"],
        "corpus.save_manifest_s": total("corpus.save_manifest"),
        "corpus.load_manifest_s": total("corpus.load_manifest"),
        "corpus.load_manifest_calls": calls("corpus.load_manifest"),
        "corpus.mean_frames_s": total("corpus.mean_frames"),
        "corpus.mean_frames_calls": calls("corpus.mean_frames"),
        "corpus.recording_s": total("corpus.recording"),
        "corpus.recording_calls": calls("corpus.recording"),
        "corpus.validate_s": total("corpus.validate"),
        "diarize.apply_s": total("diarize.apply"),
        "diarize.clusters": c["diarize.clusters"],
        "batching.plan1_s": total("batching.plan1"),
        "batching.plan2_s": total("batching.plan2"),
        "batching.bags": c["batching.bags"],
        "batching.bag_segments": c["batching.bag_segments"],
        "embedder.forward_s": total("embedder.forward"),
        "embedder.forward_calls": calls("embedder.forward"),
        "embedder.forward_rows": c["embedder.forward_rows"],
        "embedder.backward_s": total("embedder.backward"),
        "embedder.ckpt_io_s": total("embedder.ckpt_io"),
        "losses.aggregate_s": total("losses.aggregate"),
        "losses.aggregate_calls": calls("losses.aggregate"),
        "losses.recording_loss_s": total("losses.recording_loss"),
        "losses.recording_loss_calls": calls("losses.recording_loss"),
        "losses.segment_loss_s": total("losses.segment_loss"),
        "losses.segment_loss_calls": calls("losses.segment_loss"),
        "losses.extended_ce_s": total("losses.extended_ce", "losses.extend_unknown"),
        "losses.extended_ce_calls": calls("losses.extended_ce"),
        "losses.calls_per_step": loss_calls / max(1, steps1 + steps2),
        "trainer.stage1_self_s": self_time("trainer.stage1"),
        "trainer.stage2_self_s": self_time("trainer.stage2"),
        "trainer.sgd_s": total("trainer.sgd"),
        "trainer.steps1": steps1,
        "trainer.steps2": steps2,
        "trainer.steps1_per_s": steps1 / total("trainer.stage1") if steps1 else 0.0,
        "trainer.steps2_per_s": steps2 / total("trainer.stage2") if steps2 else 0.0,
        "trainer.loss1_last10": mean(tracer.last10["train1"]),
        "trainer.loss2_last10": mean(tracer.last10["train2"]),
        "selection.self_label_s": total("selection.self_label"),
        "selection.unknown_pool_s": total("selection.unknown_pool"),
        "selection.self_s": self_time("selection.self_label", "selection.unknown_pool"),
        "selection.scored": c["selection.scored"],
        "selection.selected": c["selection.selected"],
        "selection.pool": c["selection.pool"],
        "metrics.score_trials_s": total("metrics.score_trials"),
        "metrics.eer_s": total("metrics.eer"),
        "metrics.report_s": total("metrics.report"),
        "cli.self_s": self_time(*stage_spans),
    }
