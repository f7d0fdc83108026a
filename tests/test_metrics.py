import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaksv.corpus import assign_heldout_split, split_trials
from weaksv.embedder import Checkpoint, EmbedderConfig, init_params
from weaksv.errors import CorruptArtifact, MissingArtifacts, SingleClass
from weaksv.metrics import collect_report, compute_eer, compute_mindcf, make_report, save_scores, score_trials
from weaksv.rng import Rng


def brute_force_eer(scores, labels):
    """Independent oracle: direct counting at every threshold, then the
    same diagonal crossing by segment interpolation."""
    tar = scores[labels]
    non = scores[~labels]
    points = [(0.0, 1.0)]
    for th in np.unique(scores):
        points.append((float(np.mean(tar < th)), float(np.mean(non >= th))))
    points.append((1.0, 0.0))
    for i in range(1, len(points)):
        miss, fa = points[i]
        if miss - fa >= 0.0:
            if miss - fa == 0.0:
                return miss
            m1, f1 = points[i - 1]
            t = (f1 - m1) / ((miss - m1) - (fa - f1))
            return m1 + t * (miss - m1)
    raise AssertionError("no crossing found")


def brute_force_mindcf(scores, labels, p, c_miss=1.0, c_fa=1.0):
    tar = scores[labels]
    non = scores[~labels]
    best = np.inf
    for th in [-np.inf, *np.unique(scores), np.inf]:
        miss = float(np.mean(tar < th))
        fa = float(np.mean(non >= th))
        best = min(best, c_miss * p * miss + c_fa * (1 - p) * fa)
    return best / min(c_miss * p, c_fa * (1 - p))


def _random_scoreset(rng, n):
    scores = rng.floats(n) * 2 - 1
    labels = rng.floats(n) < 0.35
    if labels.all():
        labels[0] = False
    if not labels.any():
        labels[0] = True
    return scores, labels


# c_miss = c_fa = 1, the schema's defaults
UNIT_COSTS = (1.0, 1.0)


class TestComputeEer:
    def test_crossing_example(self):
        scores, labels = np.array([0.9, 0.8, 0.1, 0.95]), np.array([True, True, False, False])
        assert compute_eer(scores, labels) == pytest.approx(brute_force_eer(scores, labels), abs=1e-12)
        assert compute_eer(scores, labels) == pytest.approx(0.5)

    def test_perfect_separation(self):
        assert compute_eer(np.array([0.9, 0.8, 0.1, 0.2]), np.array([True, True, False, False])) == 0.0

    def test_inverted_labels_sweep_convention(self):
        assert compute_eer(np.array([0.1, 0.2, 0.8, 0.9]), np.array([True, True, False, False])) == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            compute_eer(np.array([0.1, 0.2]), np.array([True, True]))

    def test_against_brute_force_sweep(self):
        rng = Rng.from_seed(123)
        for trial in range(60):
            scores, labels = _random_scoreset(rng, 20 + rng.randint(300))
            got = compute_eer(scores, labels)
            assert got == pytest.approx(brute_force_eer(scores, labels), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_increasing_transform(self, seed):
        rng = Rng.from_seed(seed)
        scores, labels = _random_scoreset(rng, 80)
        base = compute_eer(scores, labels)
        warped = compute_eer(np.tanh(3.0 * scores) + 0.1, labels)
        assert warped == pytest.approx(base, abs=1e-9)


class TestComputeMindcf:
    def test_hand_worked_example(self):
        # targets {0.6, 0.2}, non-target {0.5}: best threshold accepts only
        # 0.6, so cost = p * 0.5 and the normalized value is exactly 0.5
        assert compute_mindcf(np.array([0.6, 0.2, 0.5]), np.array([True, True, False]), 0.05, *UNIT_COSTS) == 0.5

    def test_perfect_separation(self):
        assert compute_mindcf(np.array([0.9, 0.8, 0.1]), np.array([True, True, False]), 0.05, *UNIT_COSTS) == 0.0

    def test_identical_scores_hit_trivial_bound(self):
        scores, labels = np.array([0.3, 0.3, 0.3, 0.3]), np.array([True, True, False, False])
        assert compute_mindcf(scores, labels, 0.05, *UNIT_COSTS) == pytest.approx(1.0)

    def test_normalized_at_most_one(self):
        rng = Rng.from_seed(5)
        for _ in range(40):
            scores, labels = _random_scoreset(rng, 50)
            assert compute_mindcf(scores, labels, 0.05, *UNIT_COSTS) <= 1.0 + 1e-12

    def test_against_brute_force_sweep(self):
        rng = Rng.from_seed(321)
        for _ in range(60):
            scores, labels = _random_scoreset(rng, 20 + rng.randint(300))
            got = compute_mindcf(scores, labels, 0.05, *UNIT_COSTS)
            ref = brute_force_mindcf(scores, labels, 0.05)
            assert got == pytest.approx(ref, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_increasing_transform(self, seed):
        rng = Rng.from_seed(seed)
        scores, labels = _random_scoreset(rng, 60)
        base = compute_mindcf(scores, labels, 0.05, *UNIT_COSTS)
        warped = compute_mindcf(np.exp(scores), labels, 0.05, *UNIT_COSTS)
        assert warped == pytest.approx(base, abs=1e-9)


@pytest.fixture(scope="module")
def setup(small_corpus):
    corpus = assign_heldout_split(small_corpus, 0.4, seed=4)
    trials = split_trials(corpus, 30, 30, seed=5)
    cfg = EmbedderConfig(feat_dim=corpus.feat_dim, hidden_dim=16, emb_dim=8)
    ckpt = Checkpoint(cfg, init_params(cfg, corpus.n_speakers, 1))
    return corpus, trials, ckpt


class TestScoreTrials:
    def test_identical_segments_score_one(self, setup):
        corpus, _, ckpt = setup
        scores = score_trials(ckpt, corpus, np.array([[0, 0, 1]]))
        assert scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_scores_bounded(self, setup):
        corpus, trials, ckpt = setup
        scores = score_trials(ckpt, corpus, trials)
        assert scores.dtype == np.float64 and scores.shape == (len(trials),)
        assert np.all(np.abs(scores) <= 1.0 + 1e-9)

    def test_scores_tsv_round_trip(self, setup, tmp_path):
        corpus, trials, ckpt = setup
        scores = score_trials(ckpt, corpus, trials)
        save_scores(scores, trials, tmp_path / "scores.tsv")
        lines = (tmp_path / "scores.tsv").read_text().splitlines()
        assert [line.split("\t") for line in lines] == [
            [str(enroll), str(test), repr(float(score)), str(label)]
            for (enroll, test, label), score in zip(trials.tolist(), scores)]
        assert [float(line.split("\t")[2]) for line in lines] == scores.tolist()


class TestMakeReport:
    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(MissingArtifacts):
            make_report(tmp_path)

    def test_collects_eval_selection_and_schedules(self, tmp_path):
        (tmp_path / "eval_stage1.json").write_text(json.dumps({"eer": 0.01, "mindcf": 0.1}))
        (tmp_path / "selection_stats.json").write_text(json.dumps({"precision": 0.97}))
        (tmp_path / "metrics_stage1.csv").write_text(
            "step,epoch,lr,margin,tau,loss\n1,0,0.01,0.0,0.5,3.2\n2,0,0.02,0.0,0.5,2.9\n")
        report = make_report(tmp_path)
        assert report["evals"]["stage1"]["eer"] == 0.01
        assert report["selection"]["precision"] == 0.97
        assert report["schedules"]["stage1"]["steps"] == 2
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name, data", [
        ("eval_stage1.json", b'{"eer": 0.01, "min'),
        ("eval_stage1.json", b'{"eer": "\xff"}'),
        ("selection_stats.json", b""),
        ("metrics_stage1.csv", b"step,epoch,lr,margin,tau,loss\n1,0,0.01,0.0,0.5\n"),
        ("metrics_stage1.csv", b"step,epoch,lr,margin,tau,loss\n1,0,0.01,0.0,0.5,x\n"),
        ("metrics_stage1.csv", b"step,epoch,lr,margin,tau,loss\n1,0,0.01,0.0,0.5,3.2"),
        ("eval_stage1.json", b'{"eer": NaN}'),
        ("eval_stage1.json", b'{"eer": 1e999}'),
        ("selection_stats.json", b'{"precision": -Infinity}'),
        ("metrics_stage1.csv", b"step,epoch,lr,margin,tau,loss\n1,0,0.01,0.0,0.5,nan\n"),
        ("metrics_stage1.csv", b"step,epoch,lr,margin,tau,loss\n1,0,inf,0.0,0.5,3.2\n"),
    ], ids=["eval_cut", "eval_not_utf8", "stats_empty", "row_of_five", "loss_not_a_number", "row_cut",
            "eval_nan", "eval_overflow", "stats_minus_infinity", "loss_nan", "lr_inf"])
    def test_damaged_file_rejected(self, tmp_path, name, data):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(CorruptArtifact, match=name):
            make_report(tmp_path)
        assert not (tmp_path / "report.json").exists()

    def test_skipped_files_and_runs_are_not_read(self, tmp_path):
        damaged = b'{"eer": NaN}'
        (tmp_path / "eval_stage1.json").write_bytes(damaged)
        (tmp_path / "eval_stage2.json").write_text(json.dumps({"eer": 0.01}))
        run = tmp_path / "ablation" / "m1"
        run.mkdir(parents=True)
        (run / "metrics_stage1.csv").write_bytes(b"step,epoch,lr,margin,tau,loss\n1,0,0.01,0.0,0.5,x\n")
        skip = {tmp_path / "eval_stage1.json", run}
        assert collect_report(tmp_path, skip=skip) == {"evals": {"stage2": {"eer": 0.01}}}
        for path in skip:
            with pytest.raises(CorruptArtifact):
                collect_report(tmp_path, skip=skip - {path})

    def test_ablation_grid_rows(self, tmp_path):
        for name in ("m1", "m2", "m3", "m4", "m5", "m6"):
            sub = tmp_path / "ablation" / name
            sub.mkdir(parents=True)
            (sub / "eval_stage1.json").write_text(json.dumps({"eer": 0.02, "mindcf": 0.2}))
        (tmp_path / "eval_stage1.json").write_text(json.dumps({"eer": 0.01, "mindcf": 0.1}))
        report = make_report(tmp_path)
        assert sorted(report["ablation"]) == ["m1", "m2", "m3", "m4", "m5", "m6"]
        for row in report["ablation"].values():
            assert "evals" in row
