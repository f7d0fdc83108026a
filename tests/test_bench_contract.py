"""The benchmark's layer tracer still sees every training step.

bench/tracing.py wraps functions at the module attribute each caller
looks up (weaksv.trainer.forward_pooled, .sgd_step, the loss names, ...)
and puts them back on close(). A training loop that bound one of those
names early, as a default argument or a closure made at import, would
bypass the wrapper, and the benchmark's per-layer counts would read zero
without any error.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import train_recordings
from weaksv import cli, trainer
from weaksv.corpus import assign_heldout_split
from weaksv.diarize import PRESETS, apply_diarization
from weaksv.embedder import EmbedderConfig
from weaksv.trainer import StageConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402

MODEL = EmbedderConfig(feat_dim=20, hidden_dim=16, emb_dim=8)


@pytest.fixture(scope="module")
def corpus(small_corpus):
    return apply_diarization(assign_heldout_split(small_corpus, 0.2, seed=1), PRESETS["baseline"])


def test_tracer_counts_every_step_and_restores(corpus):
    points = tracing.patch_points()  # raises if a patched name no longer exists
    originals = [vars(owner)[attr] for owner, attr in points]
    selected = np.array([(sid, rec.target) for rec in train_recordings(corpus) for sid in rec.segment_ids()
                         if corpus.segments.oracle[sid] == rec.target], dtype=np.int64)
    pool = np.array([sid for rec in train_recordings(corpus) for sid in rec.segment_ids()
                     if corpus.segments.oracle[sid] < 0], dtype=np.int64)
    stage1 = StageConfig(epochs=2, batch_size=24)
    stage2 = StageConfig(epochs=3, batch_size=24, unknown_start_epoch=1)

    tracer = tracing.Tracer().install()
    plans = []  # the stage-1 plans training receives, kept past the tracer's wrapper
    traced_plan = trainer.plan_epoch_stage1
    trainer.plan_epoch_stage1 = lambda *args: plans.append(traced_plan(*args)) or plans[-1]
    try:
        # looked up on the module at call time, as the CLI does
        cli.train_stage1(corpus, stage1, MODEL, seed=3)
        cli.train_stage2(corpus, selected, stage2, MODEL, seed=3, unknown_pool=pool)
    finally:
        tracer.close()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(points, originals))

    calls = {name: span[0] for name, span in tracer.spans.items()}
    steps1, steps2 = tracer.counts["trainer.steps1"], tracer.counts["trainer.steps2"]
    assert steps1 > 0 and steps2 > 0
    assert calls["trainer.stage1"] == 1 and calls["trainer.stage2"] == 1
    assert calls["batching.plan1"] == stage1.epochs and calls["batching.plan2"] == stage2.epochs
    # the tracer counts bags through BagBatch.bags; training reads the batch arrays
    assert len(plans) == stage1.epochs
    assert tracer.counts["batching.bags"] == sum(len(b.offsets) for plan in plans for b in plan) > 0
    assert tracer.counts["batching.bag_segments"] == sum(len(b.segment_ids) for plan in plans for b in plan)
    for span in ("embedder.forward", "embedder.backward", "trainer.sgd"):
        assert calls[span] == steps1 + steps2, span
    # stage 1: pooling plus the recording loss on every step
    assert calls["losses.aggregate"] == calls["losses.recording_loss"] == steps1
    # stage 2: one margin loss per step, or the extension plus the extended loss
    unknown_steps = calls.get("losses.extended_ce", 0)
    assert unknown_steps > 0
    assert calls["losses.extend_unknown"] == unknown_steps
    assert calls.get("losses.segment_loss", 0) + unknown_steps == steps2


def test_validation_is_traced_once_per_generated_corpus(tmp_path):
    """load_manifest validates inside weaksv.corpus, out of the tracer's sight; gen's check stays traced."""
    from workloads import WORKLOADS

    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(WORKLOADS["pipeline"].configs["tiny"])
    tracer = tracing.Tracer().install()
    try:
        calls = {}
        for stage in ("gen", "diar"):
            assert cli.main([stage, "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
            calls[stage] = {name: span[0] for name, span in tracer.spans.items()}
    finally:
        tracer.close()
    assert calls["gen"]["corpus.validate"] == 1 and calls["gen"].get("corpus.load_manifest", 0) == 0
    assert calls["diar"]["corpus.validate"] == 1 and calls["diar"]["corpus.load_manifest"] == 1
