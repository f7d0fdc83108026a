"""Smoke test of scripts/pilot_matrix.py on a tiny config.

The script calls the selection and trainer functions directly, so a
signature change there breaks it; this test makes that a test failure.
"""

import pytest

from weaksv.config import load_run_config

from conftest import load_script

TINY = """
[synth]
n_speakers = 8
recordings_per_speaker = 4
segments_per_recording = 4..6
frames_per_segment = 4..8
unknown_speaker_count = 3
[trials]
heldout_fraction = 0.4
n_target = 30
n_nontarget = 30
[stage1]
epochs = 3
batch_size = 24
[stage2]
epochs = 2
batch_size = 24
[select]
top_k = 2
fraction = 0.5
"""


@pytest.fixture(scope="module")
def pilot():
    return load_script("pilot_matrix")


def test_run_seed_on_a_tiny_config(pilot, tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    row = pilot.run_seed(7, load_run_config(cfg_path, seed=7))
    assert row["seed"] == 7
    for key in ("stage1_baseline", "stage1_pyannote-like", "precision", "recall",
                "stage2_plain", "stage2_unknown"):
        assert 0.0 <= row[key] <= 1.0, key
    assert row["pool_size"] > 0


def test_run_seed_rejects_a_config_of_another_seed(pilot):
    with pytest.raises(ValueError):
        pilot.run_seed(7, load_run_config(None, seed=8))
