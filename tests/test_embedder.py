import struct

import numpy as np
import pytest

from weaksv.embedder import (
    PARAM_NAMES,
    Checkpoint,
    EmbedderConfig,
    backward_pooled,
    flatten_params,
    forward_pooled,
    init_params,
    load_checkpoint,
    save_checkpoint,
    unflatten_params,
)
from weaksv.errors import CorruptArtifact, DegenerateEmbedding
from weaksv.rng import Rng

from conftest import central_difference, max_relative_error

CFG = EmbedderConfig(feat_dim=6, hidden_dim=7, emb_dim=5)


def _random_model(seed):
    return init_params(CFG, 4, seed)


def _backward(d_emb, cache, params):
    """backward_pooled into fresh arrays: the network gradients W1, b1, W2, b2."""
    return backward_pooled(d_emb, cache, params, {name: np.empty_like(params[name]) for name in PARAM_NAMES[:4]})


def test_embedding_is_unit_norm():
    params = _random_model(0)
    xbar = Rng.from_seed(1).normals(8 * CFG.feat_dim).reshape(8, CFG.feat_dim)
    emb, _ = forward_pooled(xbar, params)
    assert np.all(np.abs(np.linalg.norm(emb, axis=1) - 1.0) < 1e-6)


def test_zero_output_layer_is_degenerate():
    params = _random_model(0)
    params["W2"][:] = 0.0
    params["b2"][:] = 0.0
    with pytest.raises(DegenerateEmbedding):
        forward_pooled(np.ones((2, CFG.feat_dim)), params)


class TestCosineSimilarities:
    def test_matching_prototype(self):
        prototypes = _random_model(3)["P"]
        c = prototypes[2:3] @ prototypes.T
        assert abs(c[0, 2] - 1.0) < 1e-6

    def test_orthogonal_prototype(self):
        prototypes = np.eye(4, 5)
        e = np.zeros((1, 5))
        e[0, 4] = 1.0
        c = e @ prototypes.T
        assert np.all(np.abs(c) < 1e-6)

    def test_bounded(self):
        rng = Rng.from_seed(5)
        prototypes = _random_model(5)["P"]
        for _ in range(100):
            e = rng.normals(CFG.emb_dim)
            e /= np.linalg.norm(e)
            assert np.all(np.abs(e[None, :] @ prototypes.T) <= 1.0 + 1e-9)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = _random_model(1)
        xbar = Rng.from_seed(3).normals(3 * CFG.feat_dim).reshape(3, CFG.feat_dim)
        _, cache = forward_pooled(xbar, params)
        grads = _backward(np.zeros((3, CFG.emb_dim)), cache, params)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_radial_upstream_annihilated(self):
        params = _random_model(1)
        xbar = Rng.from_seed(4).normals(CFG.feat_dim)[None, :]
        emb, cache = forward_pooled(xbar, params)
        grads = _backward(2.5 * emb, cache, params)
        for g in grads.values():
            assert np.max(np.abs(g)) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        # oracle: central differences on a scalar projection of the embedding
        params = init_params(CFG, 4, seed)
        rng = Rng.from_seed(seed, "fdtest")
        xbar = rng.normals(2 * CFG.feat_dim).reshape(2, CFG.feat_dim)
        probe = rng.normals(2 * CFG.emb_dim).reshape(2, CFG.emb_dim)

        def scalar_loss(theta):
            emb, _ = forward_pooled(xbar, unflatten_params(theta, CFG, 4))
            return float(np.sum(probe * emb))

        theta = flatten_params(params)
        _, cache = forward_pooled(xbar, params)
        grads = _backward(probe, cache, params)
        grads["P"] = np.zeros_like(params["P"])
        analytic = flatten_params(grads)
        numeric = central_difference(scalar_loss, theta)
        assert max_relative_error(analytic, numeric) < 1e-5


def test_prototype_renormalization_preserves_argmax():
    rng = Rng.from_seed(9)
    for _ in range(50):
        prototypes = rng.normals(6 * 5).reshape(6, 5)
        prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
        e = rng.normals(5)
        e /= np.linalg.norm(e)
        before = int(np.argmax(e @ prototypes.T))
        rescaled = prototypes * rng.floats(6)[:, None] * 3.0
        renormed = rescaled / np.linalg.norm(rescaled, axis=1, keepdims=True)
        after = int(np.argmax(e @ renormed.T))
        assert before == after


class TestCheckpointIO:
    def _checkpoint(self):
        params = _random_model(7)
        vel = {"W1": params["W1"] * 0.1, "b1": params["b1"] + 1, "W2": params["W2"] * 0.2,
               "b2": params["b2"] - 1, "P": params["P"] * 0.3}
        return Checkpoint(CFG, params, vel, step=123, epoch=4, config_hash=bytes(range(32)))

    def test_round_trip_bit_exact(self, tmp_path):
        ckpt = self._checkpoint()
        save_checkpoint(ckpt, tmp_path / "model.ckpt")
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        assert loaded.config == CFG
        assert loaded.step == 123 and loaded.epoch == 4
        assert loaded.config_hash == bytes(range(32))
        assert list(loaded.params) == list(PARAM_NAMES)
        for name in PARAM_NAMES:
            assert np.array_equal(loaded.params[name], ckpt.params[name])
            assert np.array_equal(loaded.velocities[name], ckpt.velocities[name])

    def test_rejects_wrong_magic(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CorruptArtifact):
            load_checkpoint(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block, name", [("parameter", "W1"), ("velocity", "P")])
    def test_rejects_non_finite_value(self, tmp_path, block, name, value):
        # training never saves such a value (sgd_step rejects a non-finite gradient), so it is damage
        ckpt = self._checkpoint()
        (ckpt.params if block == "parameter" else ckpt.velocities)[name].flat[0] = value
        save_checkpoint(ckpt, tmp_path / "model.ckpt")
        with pytest.raises(CorruptArtifact, match=f"holds a {block} that is not finite"):
            load_checkpoint(tmp_path / "model.ckpt")

    @pytest.mark.parametrize("case", ["short_header", "bad_version", "zero_dim", "truncated",
                                      "truncated_optimizer", "trailing_bytes", "bad_opt_magic",
                                      "cut_at_optimizer"])
    def test_rejects_damage(self, tmp_path, case):
        save_checkpoint(self._checkpoint(), tmp_path / "model.ckpt")
        raw = bytearray((tmp_path / "model.ckpt").read_bytes())
        n_params = flatten_params(self._checkpoint().params).size
        opt_at = 24 + 8 * n_params
        damaged = {
            "short_header": lambda: raw[:20],
            "bad_version": lambda: raw[:4] + struct.pack("<I", 2) + raw[8:],
            "zero_dim": lambda: raw[:20] + struct.pack("<I", 0) + raw[24:],
            "truncated": lambda: raw[:opt_at - 8],
            "truncated_optimizer": lambda: raw[:-8],
            "trailing_bytes": lambda: raw + b"\x00" * 8,
            "bad_opt_magic": lambda: raw[:opt_at] + b"XXXX" + raw[opt_at + 4:],
            "cut_at_optimizer": lambda: raw[:opt_at],  # the parameters alone
        }[case]()
        (tmp_path / "model.ckpt").write_bytes(bytes(damaged))
        with pytest.raises(CorruptArtifact):
            load_checkpoint(tmp_path / "model.ckpt")
