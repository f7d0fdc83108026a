"""Pilot the 3-seed acceptance matrix used to fix desk-scale thresholds.

For each seed: generate the default corpus, run both diarization presets,
train stage 1 on each, self-label from the baseline run, train stage 2
with and without the unknown class, and score everything on the same
trial list. Prints the EER/precision/recall matrix the repository's
acceptance thresholds were calibrated against.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from weaksv.config import RunConfig, load_run_config
from weaksv.corpus import assign_heldout_split, split_trials
from weaksv.diarize import PRESETS, apply_diarization
from weaksv.metrics import compute_eer, score_trials
from weaksv.selection import score_train_segments, select_unknown_pool, self_label
from weaksv.synth import generate_corpus
from weaksv.trainer import train_stage1, train_stage2


def run_seed(seed: int, cfg: RunConfig | None = None) -> dict:
    """One seed's row of the matrix; cfg defaults to the default config at that seed."""
    if cfg is None:
        cfg = load_run_config(None, seed=seed)
    elif cfg.seed != seed:
        raise ValueError(f"cfg.seed = {cfg.seed} is not the row's seed {seed}")
    corpus = generate_corpus(cfg.synth)
    corpus = assign_heldout_split(corpus, cfg.heldout_fraction, seed)
    trials = split_trials(corpus, cfg.n_target_trials, cfg.n_nontarget_trials, seed)
    is_target = trials[:, 2] == 1

    out: dict = {"seed": seed}
    diar_runs = {}
    for preset in ("baseline", "pyannote-like"):
        dcfg = replace(PRESETS[preset], seed=seed + 90000)
        diarized = apply_diarization(corpus, dcfg)
        result = train_stage1(diarized, cfg.stage1, cfg.model, seed)
        eer = compute_eer(score_trials(result.checkpoint, diarized, trials), is_target)
        diar_runs[preset] = (diarized, result.checkpoint)
        out[f"stage1_{preset}"] = eer

    diarized, ckpt = diar_runs["baseline"]
    scored = score_train_segments(diarized, ckpt, cfg.stage1.scale)
    selection = self_label(diarized, scored)
    pool = select_unknown_pool(scored, cfg.select_top_k, cfg.select_fraction)
    out["precision"] = selection.stats.precision
    out["recall"] = selection.stats.recall
    out["pool_size"] = len(pool.segment_ids)

    plain = train_stage2(diarized, selection.selected, cfg.stage2, cfg.model, seed)
    out["stage2_plain"] = compute_eer(score_trials(plain.checkpoint, diarized, trials), is_target)

    unk_cfg = replace(cfg.stage2, unknown_start_epoch=cfg.stage2.epochs // 2)
    unk = train_stage2(diarized, selection.selected, unk_cfg, cfg.model, seed,
                       unknown_pool=pool.segment_ids)
    out["stage2_unknown"] = compute_eer(score_trials(unk.checkpoint, diarized, trials), is_target)
    return out


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
