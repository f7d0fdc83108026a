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

import pytest

from weaksv import cli
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
    selected = [(sid, rec.target) for rec in corpus.train_recordings() for sid in rec.segment_ids()
                if corpus.segments.oracle[sid] == rec.target]
    pool = [sid for rec in corpus.train_recordings() for sid in rec.segment_ids()
            if corpus.segments.oracle[sid] < 0]
    stage1 = StageConfig(epochs=2, batch_size=24)
    stage2 = StageConfig(epochs=3, batch_size=24, unknown_start_epoch=1)

    tracer = tracing.Tracer().install()
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
    for span in ("embedder.forward", "embedder.backward", "trainer.sgd"):
        assert calls[span] == steps1 + steps2, span
    # stage 1: pooling plus the recording loss on every step
    assert calls["losses.aggregate"] == calls["losses.recording_loss"] == steps1
    # stage 2: one margin loss per step, or the extension plus the extended loss
    unknown_steps = calls.get("losses.extended_ce", 0)
    assert unknown_steps > 0
    assert calls["losses.extend_unknown"] == unknown_steps
    assert calls.get("losses.segment_loss", 0) + unknown_steps == steps2
