"""The benchmark's workloads: a weaksv config plus the CLI stages run on it.

Each workload exists at two sizes. `full` is what the benchmark measures;
`tiny` keeps the same stage sequence on a corpus small enough for the
harness smoke test.

- pipeline: the calibrated acceptance config (default config with the
  unknown class from stage-2 epoch 10) through gen -> diar (baseline) ->
  train1 -> select -> train2 -> eval. Training dominates, so the loss
  layer's per-row and per-bag Python calls set its time.
- ablate: gen -> diar (pyannote-like) -> ablate. Six stage-1 variants
  (four LSE, two with margin), two stage-2 runs and eight evals, on small
  pure bags: the LSE path of the loss layer and the stage-1 batch planner.
- scale: 8x the speakers (320) with 2 epochs per stage and the unknown
  class from stage-2 epoch 1, same stages as pipeline. The data path
  (manifest I/O, pooled means, per-segment recording lookups) dominates
  and training is a small share, so a loss-layer gain should not show.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

PIPELINE_STAGES = (("gen",), ("diar", "--preset", "baseline"), ("train1",), ("select",),
                   ("train2",), ("eval",))
ABLATE_STAGES = (("gen",), ("diar", "--preset", "pyannote-like"), ("ablate",))

# Small enough for a smoke test; top_k must stay below n_speakers.
_TINY = """
[synth]
n_speakers = 12
recordings_per_speaker = 5
segments_per_recording = 4..6
frames_per_segment = 4..8
unknown_speaker_count = 3
[trials]
heldout_fraction = 0.4
n_target = 40
n_nontarget = 40
[stage1]
epochs = {e1}
batch_size = 24
[stage2]
epochs = {e2}
batch_size = 24
unknown_start_epoch = {unk}
[select]
top_k = 2
"""

# Acceptance bounds from the README pilot table, applied per seed on
# pipeline at full size (the config they were calibrated on).
MIN_PRECISION = 0.90
MIN_RECALL = 0.85


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[tuple[str, ...], ...]
    configs: dict[str, str]  # size -> config file text
    gated: bool  # whether the per-seed acceptance bounds apply at full size


WORKLOADS = {
    "pipeline": Workload(
        "pipeline", PIPELINE_STAGES,
        {"full": "[stage2]\nunknown_start_epoch = 10\n",
         "tiny": _TINY.format(e1=6, e2=4, unk=2)},
        gated=True),
    "ablate": Workload(
        "ablate", ABLATE_STAGES,
        {"full": "", "tiny": _TINY.format(e1=4, e2=4, unk=-1)},
        gated=False),
    "scale": Workload(
        "scale", PIPELINE_STAGES,
        {"full": "[synth]\nn_speakers = 320\n[stage1]\nepochs = 2\n"
                 "[stage2]\nepochs = 2\nunknown_start_epoch = 1\n",
         "tiny": _TINY.format(e1=2, e2=2, unk=1)},
        gated=False),
}


def quality(workload: Workload, run_dir: Path) -> dict[str, float]:
    """Quality figures of one pass, read from the run's report.json.

    On ablate, eer_stage1 is the mean over the six stage-1 variants and
    the stage-2 figures come from the run with the unknown class.
    """
    report = json.loads((run_dir / "report.json").read_text("utf-8"))
    if any(stage[0] == "ablate" for stage in workload.stages):
        grid = report["ablation"]
        variants = [grid[f"m{i}"]["evals"]["stage1"]["eer"] for i in range(1, 7)]
        eer1 = sum(variants) / len(variants)
        stage2 = grid["stage2_unknown"]["evals"]["stage2"]
        selection = grid["stage2_unknown"]["selection"]
    else:
        eer1 = report["evals"]["stage1"]["eer"]
        stage2 = report["evals"]["stage2"]
        selection = report["selection"]
    return {
        "eer_stage1": float(eer1),
        "eer_stage2": float(stage2["eer"]),
        "mindcf_stage2": float(stage2["mindcf"]),
        "sel_precision": float(selection["precision"]),
        "sel_recall": float(selection["recall"]),
    }


def check_quality(workload: Workload, size: str, q: dict[str, float]) -> list[str]:
    """Violations of the quality checks; an empty list means the pass is good."""
    problems = [f"{k} = {v!r} is not a rate in [0, 1]" for k, v in q.items()
                if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if workload.gated and size == "full":
        if q["sel_precision"] < MIN_PRECISION:
            problems.append(f"selection precision {q['sel_precision']:.4f} < {MIN_PRECISION}")
        if q["sel_recall"] < MIN_RECALL:
            problems.append(f"selection recall {q['sel_recall']:.4f} < {MIN_RECALL}")
    return problems
