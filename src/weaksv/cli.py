"""Command-line pipeline over a run directory.

Subcommands: gen, diar, train1, select, train2, eval, ablate, schema.
The first six run the paper's chain one link each (corpus,
diarization, stage 1, self-labeling, stage 2, scoring); ablate runs the
same stage steps as a grid, and scripts/pilot_matrix.py chains the
public ones (generate, diarize, self_label, stage2_runs, evaluate) as
the acceptance matrix. A command reads its inputs from the run
directory, each checked by the reader of its format, before it writes
any file; it then writes its own atomically (temp file + rename), plus a
snapshot of the configuration it ran under. Exit codes: 0 success;
1 a missing, unreadable or corrupt input or another runtime failure,
reported on one `error:` line; 2 configuration error (the whole
configuration is checked on load, before any file is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import corpus as corpusmod
from . import metrics as metricsmod
from . import selection as selmod
from .corpus import load_manifest, load_trials, save_manifest, save_oracle, save_trials, validate_corpus
from .diarize import PRESETS, apply_diarization
from .embedder import Checkpoint, load_checkpoint, save_checkpoint
from .errors import ConfigError, CorruptArtifact, MissingArtifacts, WeaksvError
from .fileio import atomic_write
from .rng import derive_key, mix64
from .synth import generate_corpus
from .trainer import (TrainResult, ablation_stage1_configs, save_metrics_csv, train_stage1, train_stage1_grid,
                      train_stage2)


def _snapshot_config(cfg: cfgmod.RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "config.snapshot", cfg.text)


# Stage steps: the per-stage commands, ablate and scripts/pilot_matrix.py share them.

STAGE2_RUNS = ("stage2_plain", "stage2_unknown")


def _check_checkpoint(ckpt: Checkpoint, path: Path, corpus: corpusmod.Corpus, speakers: bool) -> None:
    """Reject a checkpoint whose feature dimension, or (if speakers) speaker count, is not the corpus's."""
    if ckpt.config.feat_dim != corpus.feat_dim or (speakers and ckpt.n_speakers != corpus.n_speakers):
        raise CorruptArtifact(f"{path} was trained on {ckpt.n_speakers} speakers and {ckpt.config.feat_dim}-dim "
                              f"features, but the corpus has {corpus.n_speakers} and {corpus.feat_dim}")


def _save_run(result: TrainResult, out: Path, stage: int) -> None:
    """Write a training stage's checkpoint and per-step metrics."""
    save_checkpoint(result.checkpoint, out / f"stage{stage}.ckpt")
    save_metrics_csv(result.metrics, out / f"metrics_stage{stage}.csv")


def generate(cfg: cfgmod.RunConfig, feat=None) -> tuple[corpusmod.Corpus, np.ndarray]:
    """Render the corpus (into the open corpus.feat file feat, if given), split it, check it and draw its trials."""
    corpus = generate_corpus(cfg.synth, feat)
    corpus = corpusmod.assign_heldout_split(corpus, cfg.heldout_fraction, cfg.seed)
    issues = validate_corpus(corpus)
    if issues:
        raise WeaksvError(f"generated corpus failed validation: {issues[:3]}")
    return corpus, corpusmod.split_trials(corpus, cfg.n_target_trials, cfg.n_nontarget_trials, cfg.seed)


def diarize(cfg: cfgmod.RunConfig, corpus: corpusmod.Corpus) -> corpusmod.Corpus:
    """The corpus with its clusters redrawn by the cfg.diar diarizer, seeded from the run seed."""
    return apply_diarization(corpus, replace(cfg.diar, seed=derive_key(mix64(cfg.seed), "diar")))


def self_label(cfg: cfgmod.RunConfig, corpus: corpusmod.Corpus,
               ckpt: Checkpoint) -> tuple[selmod.SelectionResult, selmod.UnknownPool]:
    """Score the training segments with a stage-1 model, then self-label them and build the unknown pool."""
    scored = selmod.score_train_segments(corpus, ckpt, cfg.stage1.scale)
    return (selmod.self_label(corpus, scored),
            selmod.select_unknown_pool(scored, cfg.select_top_k, cfg.select_fraction))


def _save_selection(result: selmod.SelectionResult, pool: selmod.UnknownPool, out: Path) -> None:
    selmod.save_selection(result, out)
    selmod.save_unknown_pool(pool, out)


def stage2_runs(cfg: cfgmod.RunConfig, corpus: corpusmod.Corpus, selection: selmod.SelectionResult,
                pool: selmod.UnknownPool) -> Iterator[tuple[str, TrainResult]]:
    """Stage 2 on the selection without the unknown class, then with it from epoch epochs // 2, as
    (name, result) pairs named by STAGE2_RUNS; the pool is ignored while unknown_start_epoch is negative."""
    for name, unknown_start in zip(STAGE2_RUNS, (-1, cfg.stage2.epochs // 2)):
        stage = replace(cfg.stage2, unknown_start_epoch=unknown_start)
        yield name, train_stage2(corpus, selection.selected, stage, cfg.model, cfg.seed, unknown_pool=pool.segment_ids)


def evaluate(cfg: cfgmod.RunConfig, corpus: corpusmod.Corpus, trials: np.ndarray,
             ckpt: Checkpoint) -> tuple[np.ndarray, dict]:
    """Score the trials with ckpt: the scores and the EER/minDCF payload of its eval file."""
    scores = metricsmod.score_trials(ckpt, corpus, trials)
    is_target = trials[:, 2] == 1
    return scores, {
        "eer": metricsmod.compute_eer(scores, is_target),
        "mindcf": metricsmod.compute_mindcf(scores, is_target, cfg.eval_p_target, cfg.eval_c_miss, cfg.eval_c_fa),
        "p_target": cfg.eval_p_target,
        "n_target": int(np.sum(is_target)),
        "n_nontarget": int(np.sum(~is_target)),
    }


def _evaluate(cfg: cfgmod.RunConfig, corpus: corpusmod.Corpus, trials: np.ndarray, ckpt: Checkpoint,
              ckpt_path: Path, out: Path) -> dict:
    """Score the trials with ckpt, the checkpoint at ckpt_path; write its scores and eval file."""
    scores, payload = evaluate(cfg, corpus, trials, ckpt)
    payload["checkpoint"] = ckpt_path.name
    metricsmod.save_scores(scores, trials, out / f"scores_{ckpt_path.stem}.tsv")
    atomic_write(out / f"eval_{ckpt_path.stem}.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# Commands: each takes the run configuration and the parsed arguments.

def cmd_gen(cfg: cfgmod.RunConfig, args) -> None:
    out = cfg.out
    created = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    # the frames go to corpus.feat as they are rendered; the file is renamed into
    # place only once the corpus is checked and its trials drawn, so a failed gen
    # leaves no file, nor a directory it made, behind
    try:
        corpus, trials = atomic_write(out / corpusmod.FEAT_NAME, lambda feat: generate(cfg, feat))
    except BaseException:
        for path in created:
            path.rmdir()
        raise
    _snapshot_config(cfg, out)
    save_manifest(corpus, out)
    save_oracle(corpus, out)
    save_trials(trials, out / corpusmod.TRIALS_NAME)
    print(f"gen: {len(corpus.table.ids)} recordings, {len(corpus.segments)} segments, "
          f"{len(trials)} trials -> {out}")


def cmd_diar(cfg: cfgmod.RunConfig, args) -> None:
    out = cfg.out
    corpus = diarize(cfg, load_manifest(out))
    _snapshot_config(cfg, out)
    save_manifest(corpus, out)  # new clusters; the segment table and its means are written back unchanged
    table = corpus.table
    print(f"diar: rewrote clusters for {len(table.ids)} recordings ({len(table.sizes)} clusters)")


def cmd_train1(cfg: cfgmod.RunConfig, args) -> None:
    out = cfg.out
    result = train_stage1(load_manifest(out), cfg.stage1, cfg.model, cfg.seed)
    _snapshot_config(cfg, out)
    _save_run(result, out, 1)
    print(f"train1: {result.checkpoint.step} steps, "
          f"final loss {result.metrics[-1].loss:.4f} -> stage1.ckpt")


def cmd_select(cfg: cfgmod.RunConfig, args) -> None:
    out = cfg.out
    path = out / "stage1.ckpt"
    ckpt = load_checkpoint(path)
    corpus = load_manifest(out)
    _check_checkpoint(ckpt, path, corpus, speakers=True)
    result, pool = self_label(cfg, corpus, ckpt)
    _snapshot_config(cfg, out)
    _save_selection(result, pool, out)
    st = result.stats
    print(f"select: {st.selected_count} segments (precision {st.precision:.4f}, "
          f"recall {st.recall:.4f}); unknown pool {len(pool.segment_ids)}")


def cmd_train2(cfg: cfgmod.RunConfig, args) -> None:
    out = cfg.out
    corpus = load_manifest(out)
    selected = selmod.load_selection(out, corpus)
    pool = selmod.load_unknown_pool(out, len(corpus.segments)) if cfg.stage2.unknown_start_epoch >= 0 else None
    result = train_stage2(corpus, selected, cfg.stage2, cfg.model, cfg.seed, unknown_pool=pool)
    _snapshot_config(cfg, out)
    _save_run(result, out, 2)
    print(f"train2: {result.checkpoint.step} steps, "
          f"final loss {result.metrics[-1].loss:.4f} -> stage2.ckpt")


def cmd_eval(cfg: cfgmod.RunConfig, args) -> None:
    out = cfg.out
    corpus = load_manifest(out)
    trials = load_trials(out / corpusmod.TRIALS_NAME, corpus.segments.oracle)
    paths = [Path(args.checkpoint)] if args.checkpoint else sorted(out.glob("stage*.ckpt"))
    if not paths:
        raise MissingArtifacts(f"no stage checkpoints in {out}")
    checkpoints = [load_checkpoint(path) for path in paths]
    for path, ckpt in zip(paths, checkpoints):
        _check_checkpoint(ckpt, path, corpus, speakers=False)  # scoring reads embeddings only
    metricsmod.collect_report(out, skip={out / f"eval_{path.stem}.json" for path in paths})
    _snapshot_config(cfg, out)
    for path, ckpt in zip(paths, checkpoints):
        payload = _evaluate(cfg, corpus, trials, ckpt, path, out)
        print(f"eval {path.name}: EER {payload['eer'] * 100:.2f}%  minDCF {payload['mindcf']:.4f}")
    metricsmod.make_report(out)
    print(f"eval: report.json updated in {out}")


def cmd_ablate(cfg: cfgmod.RunConfig, args) -> None:
    """Stage-1 aggregation x margin grid plus stage-2 comparisons, each run evaluated in memory.

    The six stage-1 variants share one plan and train in lockstep as one
    stack, all before any of their files is written, so a variant that
    fails leaves no part of the grid behind.
    """
    out = cfg.out
    corpus = load_manifest(out)
    trials = load_trials(out / corpusmod.TRIALS_NAME, corpus.segments.oracle)
    variants = ablation_stage1_configs(cfg.stage1)
    grid = out / "ablation"
    metricsmod.collect_report(out, skip={grid / name for name in [*variants, *STAGE2_RUNS]})
    _snapshot_config(cfg, out)

    checkpoints = {}
    results = train_stage1_grid(corpus, list(variants.values()), cfg.model, cfg.seed)
    for (name, stage_cfg), result in zip(variants.items(), results):
        sub = grid / name
        sub.mkdir(parents=True, exist_ok=True)
        _save_run(result, sub, 1)
        payload = _evaluate(cfg, corpus, trials, result.checkpoint, sub / "stage1.ckpt", sub)
        checkpoints[name] = result.checkpoint
        print(f"ablate {name}: aggregation={stage_cfg.aggregation} "
              f"margin={stage_cfg.margin.start:g} EER {payload['eer'] * 100:.2f}%")

    # stage-2 comparisons off the margin-free max-pooling run (m4)
    selection, pool = self_label(cfg, corpus, checkpoints["m4"])
    for name, result in stage2_runs(cfg, corpus, selection, pool):
        sub = grid / name
        sub.mkdir(parents=True, exist_ok=True)
        _save_selection(selection, pool, sub)
        _save_run(result, sub, 2)
        payload = _evaluate(cfg, corpus, trials, result.checkpoint, sub / "stage2.ckpt", sub)
        print(f"ablate {name}: EER {payload['eer'] * 100:.2f}%")

    metricsmod.make_report(out)
    print(f"ablate: grid complete, report.json updated in {out}")


def cmd_schema(cfg, args) -> None:
    print(cfgmod.render_schema())


COMMANDS = {"gen": cmd_gen, "diar": cmd_diar, "train1": cmd_train1, "select": cmd_select,
            "train2": cmd_train2, "eval": cmd_eval, "ablate": cmd_ablate, "schema": cmd_schema}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="weaksv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)  # the options of every command that runs on a configuration
    run.add_argument("--config", default=None, help="configuration file (defaults apply if omitted)")
    run.add_argument("--out", default=None, help="run directory (overrides config)")
    run.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
    sub.add_parser("gen", parents=[run], help="generate the synthetic corpus, held-out split and trial list")
    sub.add_parser("diar", parents=[run], help="rewrite clusters with the simulated diarizer").add_argument(
        "--preset", default=None, choices=sorted(PRESETS), help="diarization preset (overrides config)")
    sub.add_parser("train1", parents=[run], help="stage-1 multi-instance training on recording-level labels")
    sub.add_parser("select", parents=[run], help="self-label segments and build the unknown pool")
    sub.add_parser("train2", parents=[run], help="stage-2 supervised training on the selection")
    sub.add_parser("eval", parents=[run], help="score trials and refresh the run report").add_argument(
        "--checkpoint", default=None, help="checkpoint to score (default: all stage*.ckpt)")
    sub.add_parser("ablate", parents=[run], help="run the aggregation x margin grid and stage-2 comparisons")
    sub.add_parser("schema", help="print the configuration schema")

    args = parser.parse_args(argv)
    try:
        cfg = None
        if "config" in args:  # every command but schema runs on a configuration
            cfg = cfgmod.load_run_config(args.config, seed=args.seed, out=args.out,
                                         preset=getattr(args, "preset", None))
        COMMANDS[args.command](cfg, args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WeaksvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file a command reads or writes is missing, unreadable or in the way
        where = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
