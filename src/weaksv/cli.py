"""Command-line pipeline over a run directory.

Subcommands: gen, diar, train1, select, train2, eval, ablate, selfcheck,
schema. Each consumes the artifacts of the previous stage from the run
directory and writes its own atomically (temp file + rename), plus a
snapshot of the configuration it ran under. Exit codes: 0 success,
1 runtime/missing-artifact failure, 2 configuration error (the whole
configuration is checked on load, before any file is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import corpus as corpusmod
from . import metrics as metricsmod
from . import selection as selmod
from .corpus import load_manifest, load_trials, save_manifest, save_oracle, save_trials, validate_corpus
from .diarize import PRESETS, apply_diarization
from .embedder import load_checkpoint, save_checkpoint
from .errors import ConfigError, MissingArtifacts, WeaksvError
from .fileio import atomic_write
from .rng import derive_key, mix64
from .synth import generate_corpus
from .trainer import ablation_stage1_configs, save_metrics_csv, train_stage1, train_stage2


def _snapshot_config(cfg: cfgmod.RunConfig, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "config.snapshot", cfg.text)


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingArtifacts(f"{what} not found at {path}; run the earlier stages first")
    return path


def cmd_gen(cfg: cfgmod.RunConfig) -> None:
    corpus = generate_corpus(cfg.synth)
    corpus = corpusmod.assign_heldout_split(corpus, cfg.heldout_fraction, cfg.seed)
    issues = validate_corpus(corpus)
    if issues:
        raise WeaksvError(f"generated corpus failed validation: {issues[:3]}")
    trials = corpusmod.split_trials(corpus, cfg.n_target_trials, cfg.n_nontarget_trials, cfg.seed)
    out = cfg.out
    _snapshot_config(cfg, out)
    save_manifest(corpus, out)
    save_oracle(corpus, out)
    save_trials(trials, out / corpusmod.TRIALS_NAME)
    print(f"gen: {len(corpus.recordings)} recordings, {len(corpus.segments)} segments, "
          f"{len(trials)} trials -> {out}")


def cmd_diar(cfg: cfgmod.RunConfig) -> None:
    out = cfg.out
    _require(out / corpusmod.IDX_NAME, "corpus manifest")
    diar = replace(cfg.diar, seed=derive_key(mix64(cfg.seed), "diar"))
    corpus = load_manifest(out)
    corpus = apply_diarization(corpus, diar)
    _snapshot_config(cfg, out)
    save_manifest(corpus, out)
    n_clusters = sum(len(r.clusters) for r in corpus.recordings)
    print(f"diar: rewrote clusters for {len(corpus.recordings)} recordings ({n_clusters} clusters)")


def cmd_train1(cfg: cfgmod.RunConfig) -> None:
    out = cfg.out
    _require(out / corpusmod.IDX_NAME, "corpus manifest")
    corpus = load_manifest(out)
    result = train_stage1(corpus, cfg.stage1, cfg.embedder_config(), cfg.seed)
    _snapshot_config(cfg, out)
    save_checkpoint(result.checkpoint, out / "stage1.ckpt")
    save_metrics_csv(result.metrics, out / "metrics_stage1.csv")
    print(f"train1: {result.checkpoint.step} steps, "
          f"final loss {result.metrics[-1].loss:.4f} -> stage1.ckpt")


def cmd_select(cfg: cfgmod.RunConfig) -> None:
    out = cfg.out
    _require(out / corpusmod.IDX_NAME, "corpus manifest")
    ckpt = load_checkpoint(_require(out / "stage1.ckpt", "stage-1 checkpoint"))
    corpus = load_manifest(out)
    scored = selmod.score_train_segments(corpus, ckpt, cfg.stage1.loss.scale)
    result = selmod.self_label(corpus, scored)
    pool = selmod.select_unknown_pool(scored, cfg.select_top_k, cfg.select_fraction)
    _snapshot_config(cfg, out)
    selmod.save_selection(result, out)
    selmod.save_unknown_pool(pool, out)
    st = result.stats
    print(f"select: {st.selected_count} segments (precision {st.precision:.4f}, "
          f"recall {st.recall:.4f}); unknown pool {len(pool.segment_ids)}")


def cmd_train2(cfg: cfgmod.RunConfig) -> None:
    out = cfg.out
    _require(out / corpusmod.IDX_NAME, "corpus manifest")
    selected = selmod.load_selection(Path(_require(out / "selection.jsonl", "selection")).parent)
    pool = None
    if cfg.stage2.unknown_start_epoch >= 0:
        pool = selmod.load_unknown_pool(Path(_require(out / "unknown_pool.jsonl", "unknown pool")).parent)
    corpus = load_manifest(out)
    n_segments = len(corpus.segments)
    corpusmod.require_in_range((sid for sid, _ in selected), n_segments, "segment id", "selection.jsonl")
    corpusmod.require_in_range((label for _, label in selected), corpus.n_speakers, "label",
                               "selection.jsonl")
    if pool is not None:
        corpusmod.require_in_range(pool, n_segments, "segment id", "unknown_pool.jsonl")
    result = train_stage2(corpus, selected, cfg.stage2, cfg.embedder_config(), cfg.seed,
                          unknown_pool=pool)
    _snapshot_config(cfg, out)
    save_checkpoint(result.checkpoint, out / "stage2.ckpt")
    save_metrics_csv(result.metrics, out / "metrics_stage2.csv")
    print(f"train2: {result.checkpoint.step} steps, "
          f"final loss {result.metrics[-1].loss:.4f} -> stage2.ckpt")


def _check_trials(trials, corpus) -> None:
    ids = (sid for t in trials for sid in (t.enroll_id, t.test_id))
    corpusmod.require_in_range(ids, len(corpus.segments), "segment id", corpusmod.TRIALS_NAME)


def _eval_checkpoint(cfg: cfgmod.RunConfig, corpus, trials, ckpt_path: Path, out: Path) -> dict:
    ckpt = load_checkpoint(ckpt_path)
    scores = metricsmod.score_trials(ckpt, corpus, trials)
    eer = metricsmod.compute_eer(scores)
    mindcf = metricsmod.compute_mindcf(scores, cfg.eval_p_target, cfg.eval_c_miss, cfg.eval_c_fa)
    stem = ckpt_path.stem
    metricsmod.save_scores(scores, trials, out / f"scores_{stem}.tsv")
    payload = {
        "checkpoint": ckpt_path.name,
        "eer": eer,
        "mindcf": mindcf,
        "p_target": cfg.eval_p_target,
        "n_target": int(np.sum(scores.labels)),
        "n_nontarget": int(np.sum(~scores.labels)),
    }
    atomic_write(out / f"eval_{stem}.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def cmd_eval(cfg: cfgmod.RunConfig, checkpoint: str | None) -> None:
    out = cfg.out
    _require(out / corpusmod.IDX_NAME, "corpus manifest")
    trials = load_trials(_require(out / corpusmod.TRIALS_NAME, "trial list"))
    corpus = load_manifest(out)
    _check_trials(trials, corpus)
    if checkpoint:
        paths = [Path(checkpoint)]
        _require(paths[0], "checkpoint")
    else:
        paths = sorted(out.glob("stage*.ckpt"))
        if not paths:
            raise MissingArtifacts(f"no stage checkpoints in {out}")
    _snapshot_config(cfg, out)
    for path in paths:
        payload = _eval_checkpoint(cfg, corpus, trials, path, out)
        print(f"eval {path.name}: EER {payload['eer'] * 100:.2f}%  minDCF {payload['mindcf']:.4f}")
    metricsmod.make_report(out)
    print(f"eval: report.json updated in {out}")


def cmd_ablate(cfg: cfgmod.RunConfig) -> None:
    """Stage-1 aggregation x margin grid plus stage-2 comparisons."""
    out = cfg.out
    _require(out / corpusmod.IDX_NAME, "corpus manifest")
    trials = load_trials(_require(out / corpusmod.TRIALS_NAME, "trial list"))
    corpus = load_manifest(out)
    _check_trials(trials, corpus)
    model = cfg.embedder_config()
    _snapshot_config(cfg, out)

    grid = ablation_stage1_configs(cfg.stage1)
    checkpoints = {}
    for name, stage_cfg in grid.items():
        sub = out / "ablation" / name
        sub.mkdir(parents=True, exist_ok=True)
        result = train_stage1(corpus, stage_cfg, model, cfg.seed)
        save_checkpoint(result.checkpoint, sub / "stage1.ckpt")
        save_metrics_csv(result.metrics, sub / "metrics_stage1.csv")
        payload = _eval_checkpoint(cfg, corpus, trials, sub / "stage1.ckpt", sub)
        checkpoints[name] = result.checkpoint
        print(f"ablate {name}: aggregation={stage_cfg.loss.aggregation} "
              f"margin={stage_cfg.loss.margin.start:g} EER {payload['eer'] * 100:.2f}%")

    # stage-2 comparisons off the margin-free max-pooling run (m4)
    base_ckpt = checkpoints["m4"]
    scored = selmod.score_train_segments(corpus, base_ckpt, cfg.stage1.loss.scale)
    result = selmod.self_label(corpus, scored)
    pool = selmod.select_unknown_pool(scored, cfg.select_top_k, cfg.select_fraction)
    for name, use_unknown in (("stage2_plain", False), ("stage2_unknown", True)):
        sub = out / "ablation" / name
        sub.mkdir(parents=True, exist_ok=True)
        selmod.save_selection(result, sub)
        selmod.save_unknown_pool(pool, sub)
        stage_cfg = cfg.stage2
        if use_unknown:
            stage_cfg = replace(stage_cfg, unknown_start_epoch=max(0, cfg.stage2.epochs // 2))
        else:
            stage_cfg = replace(stage_cfg, unknown_start_epoch=-1)
        res2 = train_stage2(corpus, result.selected, stage_cfg, model, cfg.seed,
                            unknown_pool=pool.segment_ids if use_unknown else None)
        save_checkpoint(res2.checkpoint, sub / "stage2.ckpt")
        save_metrics_csv(res2.metrics, sub / "metrics_stage2.csv")
        payload = _eval_checkpoint(cfg, corpus, trials, sub / "stage2.ckpt", sub)
        print(f"ablate {name}: EER {payload['eer'] * 100:.2f}%")

    metricsmod.make_report(out)
    print(f"ablate: grid complete, report.json updated in {out}")


def cmd_selfcheck() -> None:
    """Fast internal consistency checks; raises on the first failure."""
    from .selfcheck import run_selfcheck

    run_selfcheck()


def _no_hugepage_advice() -> None:
    """Stop numpy from asking the kernel for huge pages (madvise) on big arrays.

    With the advice, arrays of 4 MiB and more are backed by 2 MiB pages when
    the kernel has some free and khugepaged gets round to them, so the same
    run's resident memory moved by whole huge pages from one process to the
    next. Without it, memory use depends on the data alone.
    """
    core = getattr(np, "_core", None) or np.core
    core.multiarray._set_madvise_hugepage(False)


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 32 MiB.

    glibc raises both each time a large mapped block is freed (the mmap
    threshold up to 32 MiB), and then serves such blocks from the heap,
    where they stay resident after they are freed. So the same `scale`
    pass peaked at about 92 or about 111 MiB depending on what the process
    had freed before. Fixed thresholds turn that adjustment off: blocks of
    4 MiB and more are always mapped and returned when freed, and smaller
    ones reuse up to 32 MiB of heap, as they did with raised thresholds.
    (At the 128 KiB default, mapping every mid-sized array made a `scale`
    pass 50% slower.) Other C libraries are left as they are.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="weaksv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, checkpoint: bool = False, preset: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="configuration file (defaults apply if omitted)")
        p.add_argument("--out", default=None, help="run directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
        if checkpoint:
            p.add_argument("--checkpoint", default=None, help="checkpoint to score (default: all stage*.ckpt)")
        if preset:
            p.add_argument("--preset", default=None, choices=sorted(PRESETS),
                           help="diarization preset (overrides config)")
        return p

    add("gen", "generate the synthetic corpus, held-out split and trial list")
    add("diar", "rewrite clusters with the simulated diarizer", preset=True)
    add("train1", "stage-1 multi-instance training on recording-level labels")
    add("select", "self-label segments and build the unknown pool")
    add("train2", "stage-2 supervised training on the selection")
    add("eval", "score trials and refresh the run report", checkpoint=True)
    add("ablate", "run the aggregation x margin grid and stage-2 comparisons")
    sub.add_parser("selfcheck", help="quick gradient/pooling/metric consistency checks")
    sub.add_parser("schema", help="print the configuration schema")

    args = parser.parse_args(argv)
    _no_hugepage_advice()
    _pin_malloc_thresholds()
    try:
        if args.command == "schema":
            print(cfgmod.render_schema())
            return 0
        if args.command == "selfcheck":
            cmd_selfcheck()
            return 0
        cfg = cfgmod.load_run_config(args.config, seed=args.seed, out=args.out,
                                     preset=getattr(args, "preset", None))
        if args.command == "gen":
            cmd_gen(cfg)
        elif args.command == "diar":
            cmd_diar(cfg)
        elif args.command == "train1":
            cmd_train1(cfg)
        elif args.command == "select":
            cmd_select(cfg)
        elif args.command == "train2":
            cmd_train2(cfg)
        elif args.command == "eval":
            cmd_eval(cfg, args.checkpoint)
        elif args.command == "ablate":
            cmd_ablate(cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WeaksvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
