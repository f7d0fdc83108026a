"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a PASS line with its headline numbers (visible under
pytest -v -s or --capture=no); failures surface as ordinary assertion
errors. Criteria 6-9 share one three-seed pipeline matrix fixture; the
thresholds were fixed from the development pilot recorded in the README
and are not tunable here.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from weaksv.batching import plan_epoch_stage1
from weaksv.cli import main as cli_main
from weaksv.corpus import assign_heldout_split, split_trials
from weaksv.diarize import PRESETS, apply_diarization
from weaksv.embedder import EmbedderConfig, flatten_params, forward_pooled, init_params
from weaksv.errors import DegenerateEmbedding, NoKnownExamples
from weaksv.losses import LSE, aggregate, extend_logits_unknown
from weaksv.metrics import ScoreSet, compute_eer, compute_mindcf, score_trials
from weaksv.rng import Rng
from weaksv.selection import score_train_segments, select_unknown_pool, self_label
from weaksv.synth import SynthConfig, generate_corpus
from weaksv.trainer import train_stage1, train_stage2
from weaksv.config import load_run_config

from conftest import bag_map, central_difference, composite_loss, max_relative_error


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------


def _sample_gradcheck_case(seed: int, path: str, tau: float):
    """Draw a model/batch clear of max ties, relu kinks and cosine clamps."""
    cfg = EmbedderConfig(feat_dim=5, hidden_dim=6, emb_dim=4)
    n_spk, bag = 4, 3
    rng = Rng.from_seed(seed, "acceptance-grad")
    params = init_params(cfg, n_spk, seed * 7919 + 13)
    params["P"] = init_params(cfg, n_spk, seed * 104729 + 7)["P"]
    xbar = rng.normals(bag * cfg.feat_dim).reshape(bag, cfg.feat_dim)
    try:
        emb, cache = forward_pooled(xbar, params)
    except DegenerateEmbedding:
        return None
    cosines = emb @ params["P"].T
    if np.min(np.abs(cache.a1)) < 1e-3:  # relu kink too close
        return None
    if np.min(cache.norms) < 1e-2 or np.max(np.abs(cosines)) > 1.0 - 1e-3:
        return None
    if path == "max":
        top2 = np.sort(cosines, axis=0)[-2:, :]
        if np.min(top2[1] - top2[0]) < 1e-3:  # argmax tie
            return None
    labels = mask = extra = None
    if path == "extended":
        labels = np.array([rng.randint(n_spk) for _ in range(bag)])
        mask = np.array([True, True, False])
        extra = extend_logits_unknown(30.0 * cosines, labels, mask)[:, -1]
    target = rng.randint(n_spk)
    theta = flatten_params(params)
    kwargs = dict(target=target, s=30.0, m=0.1, tau=tau, labels=labels,
                  known_mask=mask, extra_col=extra)
    return cfg, n_spk, xbar, theta, kwargs


def test_ac01_gradient_suite():
    started = time.time()
    cases = [("max", 0.5), ("lse", 0.5), ("lse", 0.1), ("stage2", 0.5), ("extended", 0.5)]
    worst = 0.0
    for path, tau in cases:
        accepted = 0
        for seed in itertools.count():
            drawn = _sample_gradcheck_case(seed, path, tau)
            if drawn is None:
                continue
            cfg, n_spk, xbar, theta, kwargs = drawn
            _, analytic = composite_loss(theta, cfg, n_spk, xbar, path, **kwargs)
            numeric = central_difference(
                lambda t: composite_loss(t, cfg, n_spk, xbar, path, **kwargs)[0], theta, h=1e-5)
            err = max_relative_error(analytic, numeric)
            assert err < 1e-5, f"{path} seed {seed}: relative error {err:.3e}"
            worst = max(worst, err)
            accepted += 1
            if accepted >= 20:
                break
    elapsed = time.time() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    print(f"AC1 gradient suite: PASS (max rel err {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Pooling laws
# ---------------------------------------------------------------------------


def _lse_pool(v, tau):
    """The LSE pool of one bag as stage-1 training computes it."""
    return aggregate(v[:, None], LSE, tau, **bag_map([len(v)])).c_rec[0, 0]


def test_ac02_pooling_laws():
    rng = Rng.from_seed(2024, "acceptance-pool")
    taus = np.linspace(0.05, 2.0, 10)
    for _ in range(1000):
        n = 2 + rng.randint(15)  # N <= 16
        v = rng.floats(n) * 2.0 - 1.0
        tau = 0.05 + 1.95 * rng.float()
        val = _lse_pool(v, tau)
        assert v.mean() < val <= v.max() + 1e-12
        assert abs(val - v.max()) <= tau * math.log(n) + 1e-12
        series = [_lse_pool(v, t) for t in taus]
        for hot, cold in zip(series, series[1:]):
            assert cold <= hot + 1e-12
    print("AC2 pooling laws: PASS (1000 vectors, exact bounds)")


# ---------------------------------------------------------------------------
# 3. Unknown-class logit rules
# ---------------------------------------------------------------------------


def test_ac03_unknown_logit_rules():
    rng = Rng.from_seed(31, "acceptance-ext")
    for _ in range(200):
        rows = 1 + rng.randint(8)
        classes = 2 + rng.randint(6)
        L = rng.floats(rows * classes).reshape(rows, classes) * 8 - 4
        labels = np.array([rng.randint(classes) for _ in range(rows)])
        mask = rng.floats(rows) < 0.7
        if not mask.any():
            mask[0] = True
        ext = extend_logits_unknown(L, labels, mask)
        assert np.array_equal(ext[:, :classes], L)
        known_rows = np.flatnonzero(mask)
        acc = 0.0
        for i in known_rows:
            acc += float(L[i, labels[i]])
        mean = acc / len(known_rows)
        for i in range(rows):
            if mask[i]:
                assert ext[i, classes] == 0.0
            else:
                assert ext[i, classes] == mean  # exact, same summation order
        if mask.all():
            # appending a constant column never reorders the original logits
            assert np.array_equal(np.argmax(ext[:, :classes], axis=1), np.argmax(L, axis=1))
    with pytest.raises(NoKnownExamples):
        extend_logits_unknown(np.array([[1.0, 2.0]]), np.array([0]), np.array([False]))
    print("AC3 unknown-class logit rules: PASS (exact column rules, argmax preserved)")


# ---------------------------------------------------------------------------
# 4. Metric oracles
# ---------------------------------------------------------------------------


def _sweep_points(scores, labels):
    tar, non = scores[labels], scores[~labels]
    pts = [(0.0, 1.0)]
    for th in np.unique(scores):
        pts.append((float(np.mean(tar < th)), float(np.mean(non >= th))))
    pts.append((1.0, 0.0))
    return pts


def _oracle_eer(scores, labels):
    pts = _sweep_points(scores, labels)
    for i in range(1, len(pts)):
        miss, fa = pts[i]
        if miss - fa >= 0.0:
            if miss == fa:
                return miss
            m1, f1 = pts[i - 1]
            t = (f1 - m1) / ((miss - m1) - (fa - f1))
            return m1 + t * (miss - m1)
    raise AssertionError


def _oracle_mindcf(scores, labels, p):
    pts = _sweep_points(scores, labels)
    return min(p * m + (1 - p) * f for m, f in pts) / min(p, 1 - p)


def test_ac04_metric_oracles():
    rng = Rng.from_seed(44, "acceptance-metrics")
    for case in range(100):
        n = 10 + rng.randint(1991)  # <= 2000 trials
        scores = rng.floats(n) * 2.0 - 1.0
        labels = rng.floats(n) < (0.2 + 0.6 * rng.float())
        if labels.all():
            labels[0] = False
        if not labels.any():
            labels[0] = True
        ss = ScoreSet(scores, labels)
        assert abs(compute_eer(ss) - _oracle_eer(scores, labels)) <= 1e-9
        assert abs(compute_mindcf(ss, 0.05) - _oracle_mindcf(scores, labels, 0.05)) <= 1e-9
    hand = ScoreSet(np.array([0.6, 0.2, 0.5]), np.array([True, True, False]))
    assert compute_mindcf(hand, p_target=0.05) == 0.5  # exact
    print("AC4 metric oracles: PASS (100 sweeps within 1e-9, hand example exact)")


# ---------------------------------------------------------------------------
# 5. Batching bounds and coverage
# ---------------------------------------------------------------------------


def test_ac05_batching():
    rng = Rng.from_seed(55, "acceptance-batch")
    for case in range(50):
        cfg = SynthConfig(
            n_speakers=4 + rng.randint(6),
            recordings_per_speaker=3 + rng.randint(4),
            segments_per_recording=(3, 3 + rng.randint(7)),
            frames_per_segment=(1, 4),
            unknown_speaker_count=rng.randint(4),
            noise_segment_prob=0.15 * rng.float(),
            seed=int(rng.u64() % 100_000),
        )
        corpus = generate_corpus(cfg)
        if case % 3 == 0:
            corpus = apply_diarization(corpus, replace(PRESETS["baseline"], seed=case))
        target = 32
        batches = plan_epoch_stage1(corpus, target, seed=case)
        for batch in batches[:-1]:
            assert 0.9 * target <= batch.size <= 1.1 * target, batch.size
        covered = sorted(b.recording_id for batch in batches for b in batch.bags)
        assert covered == sorted(r.recording_id for r in corpus.recordings)
    print("AC5 batching: PASS (50 corpora, non-final batches within 10%, exact coverage)")


# ---------------------------------------------------------------------------
# 6-9. Pipeline matrix over three seeds
# ---------------------------------------------------------------------------

MATRIX_SEEDS = (101, 202, 303)


@pytest.fixture(scope="module")
def pipeline_matrix():
    """The default-config pipeline per seed, under both diarizers and both
    stage-2 variants; shared by the end-to-end criteria."""
    rows = []
    for seed in MATRIX_SEEDS:
        cfg = load_run_config(None, seed=seed)
        started = time.time()
        corpus = generate_corpus(cfg.synth)
        corpus = assign_heldout_split(corpus, cfg.heldout_fraction, seed)
        trials = split_trials(corpus, cfg.n_target_trials, cfg.n_nontarget_trials, seed)
        model = cfg.embedder_config()
        row = {"seed": seed}

        runs = {}
        for preset in ("baseline", "pyannote-like"):
            diarized = apply_diarization(corpus, replace(PRESETS[preset], seed=seed + 90_000))
            result = train_stage1(diarized, cfg.stage1, model, seed)
            runs[preset] = (diarized, result.checkpoint)
            row[f"stage1_{preset}"] = compute_eer(score_trials(result.checkpoint, diarized, trials))

        diarized, ckpt = runs["baseline"]
        scored = score_train_segments(diarized, ckpt, cfg.stage1.loss.scale)
        selection = self_label(diarized, scored)
        pool = select_unknown_pool(scored, cfg.select_top_k, cfg.select_fraction)
        row["precision"] = selection.stats.precision
        row["recall"] = selection.stats.recall

        plain = train_stage2(diarized, selection.selected, cfg.stage2, model, seed)
        row["stage2"] = compute_eer(score_trials(plain.checkpoint, diarized, trials))
        unk_cfg = replace(cfg.stage2, unknown_start_epoch=cfg.stage2.epochs // 2)
        unk = train_stage2(diarized, selection.selected, unk_cfg, model, seed,
                           unknown_pool=pool.segment_ids)
        row["stage2_unknown"] = compute_eer(score_trials(unk.checkpoint, diarized, trials))
        row["seconds"] = time.time() - started
        rows.append(row)
    return rows


def _mean(rows, key):
    return sum(r[key] for r in rows) / len(rows)


def test_ac06_end_to_end_selection_quality(pipeline_matrix):
    # thresholds fixed from the pilot recorded in the README
    for row in pipeline_matrix:
        assert row["precision"] >= 0.90, row
        assert row["recall"] >= 0.85, row
        assert row["seconds"] < 300.0
    p, r = _mean(pipeline_matrix, "precision"), _mean(pipeline_matrix, "recall")
    print(f"AC6 end-to-end selection quality: PASS (precision {p:.4f}, recall {r:.4f}, "
          f"{max(x['seconds'] for x in pipeline_matrix):.1f}s/seed)")


def test_ac07_stage_ordering(pipeline_matrix):
    s1 = _mean(pipeline_matrix, "stage1_baseline")
    s2 = _mean(pipeline_matrix, "stage2")
    assert s2 <= s1, (s1, s2)
    print(f"AC7 stage ordering: PASS (stage1 {s1 * 100:.2f}% -> stage2 {s2 * 100:.2f}%)")


def test_ac08_diarization_sensitivity(pipeline_matrix):
    base = _mean(pipeline_matrix, "stage1_baseline")
    pyan = _mean(pipeline_matrix, "stage1_pyannote-like")
    assert pyan <= base + 0.005, (base, pyan)
    print(f"AC8 diarization sensitivity: PASS (pyannote-like {pyan * 100:.2f}% vs "
          f"baseline {base * 100:.2f}% + 0.5pp)")


def test_ac09_unknown_class_nondegradation(pipeline_matrix):
    plain = _mean(pipeline_matrix, "stage2")
    unk = _mean(pipeline_matrix, "stage2_unknown")
    assert unk <= plain + 0.003, (plain, unk)
    print(f"AC9 unknown-class variant: PASS (with {unk * 100:.2f}% vs "
          f"without {plain * 100:.2f}% + 0.3pp)")


# ---------------------------------------------------------------------------
# 10. Pipeline determinism
# ---------------------------------------------------------------------------

DET_CONFIG = """
seed = 4242
[synth]
n_speakers = 6
recordings_per_speaker = 5
segments_per_recording = 4..6
frames_per_segment = 4..8
unknown_speaker_count = 3
[trials]
heldout_fraction = 0.4
n_target = 40
n_nontarget = 40
[stage1]
epochs = 6
batch_size = 24
[stage2]
epochs = 4
batch_size = 24
unknown_start_epoch = 2
[select]
top_k = 2
"""


def test_ac10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(DET_CONFIG)
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        for cmd in ("gen", "diar", "train1", "select", "train2", "eval"):
            assert cli_main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    names_a = sorted(p.name for p in outs[0].iterdir())
    names_b = sorted(p.name for p in outs[1].iterdir())
    assert names_a == names_b
    for name in names_a:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    print(f"AC10 determinism: PASS ({len(names_a)} artifacts byte-identical)")
