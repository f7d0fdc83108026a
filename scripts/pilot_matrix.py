"""Pilot the 3-seed acceptance matrix used to fix desk-scale thresholds.

For each seed: generate the default corpus, run both diarization presets,
train stage 1 on each, self-label from the baseline run, train stage 2
with and without the unknown class, and score everything on the same
trial list, each step through `weaksv.cli`'s own. Prints the matrix the
repository's acceptance thresholds were calibrated against.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from weaksv.cli import diarize, evaluate, generate, self_label, stage2_runs
from weaksv.config import RunConfig, load_run_config
from weaksv.diarize import PRESETS
from weaksv.trainer import train_stage1


def run_seed(seed: int, cfg: RunConfig | None = None) -> dict:
    """One seed's row of the matrix; cfg defaults to the default config at that seed.

    No matrix config sets a [diar] key, so replace(cfg, diar=PRESETS[p]) is the config
    `weaksv diar --preset p` loads: a row is what gen, diar, train1, select, train2 and eval make of cfg."""
    if cfg is None:
        cfg = load_run_config(None, seed=seed)
    elif cfg.seed != seed:
        raise ValueError(f"cfg.seed = {cfg.seed} is not the row's seed {seed}")
    corpus, trials = generate(cfg)
    row: dict = {"seed": seed}
    for preset in ("pyannote-like", "baseline"):  # the baseline run, last, goes on to stage 2
        diarized = diarize(replace(cfg, diar=PRESETS[preset]), corpus)
        ckpt = train_stage1(diarized, cfg.stage1, cfg.model, seed).checkpoint
        row[f"stage1_{preset}"] = evaluate(cfg, diarized, trials, ckpt)[1]["eer"]
    selection, pool = self_label(cfg, diarized, ckpt)
    row.update(precision=selection.stats.precision, recall=selection.stats.recall, pool_size=len(pool.segment_ids))
    for name, result in stage2_runs(cfg, diarized, selection, pool):
        row[name] = evaluate(cfg, diarized, trials, result.checkpoint)[1]["eer"]
    return row


def main() -> int:
    seeds = [int(a) for a in sys.argv[1:]] or [101, 202, 303]
    rows = []
    for seed in seeds:
        t0 = time.time()
        row = run_seed(seed)
        row["secs"] = time.time() - t0
        rows.append(row)
        print(
            f"seed {seed}: s1-base {row['stage1_baseline'] * 100:.2f}%  "
            f"s1-pyan {row['stage1_pyannote-like'] * 100:.2f}%  "
            f"s2 {row['stage2_plain'] * 100:.2f}%  s2+unk {row['stage2_unknown'] * 100:.2f}%  "
            f"P {row['precision']:.4f} R {row['recall']:.4f} pool {row['pool_size']}  "
            f"({row['secs']:.1f}s)"
        )

    def mean(key: str) -> float:
        return sum(r[key] for r in rows) / len(rows)

    print()
    print(f"mean stage1 baseline EER   {mean('stage1_baseline') * 100:.3f}%")
    print(f"mean stage1 pyannote EER   {mean('stage1_pyannote-like') * 100:.3f}%")
    print(f"mean stage2 plain EER      {mean('stage2_plain') * 100:.3f}%")
    print(f"mean stage2 +unknown EER   {mean('stage2_unknown') * 100:.3f}%")
    print(f"mean precision {mean('precision'):.4f}  mean recall {mean('recall'):.4f}")
    ok = (
        mean("stage2_plain") <= mean("stage1_baseline")
        and mean("stage1_pyannote-like") <= mean("stage1_baseline") + 0.005
        and mean("stage2_unknown") <= mean("stage2_plain") + 0.003
        and all(r["precision"] >= 0.90 and r["recall"] >= 0.85 for r in rows)
    )
    print("matrix satisfies the desk-scale orderings" if ok else "ORDERING VIOLATION")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
