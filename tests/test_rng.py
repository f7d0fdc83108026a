import numpy as np
from hypothesis import given, strategies as st

from weaksv.rng import Rng, derive_key, fnv1a64, mix64, normals_at


def test_scalar_and_vector_streams_agree():
    a = Rng.from_seed(42)
    b = Rng.from_seed(42)
    assert [a.u64() for _ in range(100)] == b._block(100).tolist()


def test_floats_match_scalar_path():
    a = Rng.from_seed(9)
    b = Rng.from_seed(9)
    assert a.floats(50).tolist() == [b.float() for _ in range(50)]


def test_streams_are_reproducible():
    assert Rng.from_seed(1).normals(64).tolist() == Rng.from_seed(1).normals(64).tolist()


def test_spawn_is_independent_of_consumption():
    a = Rng.from_seed(5)
    a.floats(17)
    b = Rng.from_seed(5)
    assert a.spawn("x").u64() == b.spawn("x").u64()


def test_different_seeds_differ():
    assert Rng.from_seed(1).u64() != Rng.from_seed(2).u64()


def test_normals_moments():
    z = Rng.from_seed(3).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_floats_in_unit_interval():
    f = Rng.from_seed(8).floats(10_000)
    assert np.all(f >= 0.0) and np.all(f < 1.0)


def test_shuffle_is_a_permutation():
    rng = Rng.from_seed(12)
    items = list(range(100))
    rng.shuffle(items)
    assert sorted(items) == list(range(100))


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_range(z):
    assert 0 <= mix64(z) < 2**64


@given(st.integers(min_value=-(2**63), max_value=2**63), st.integers(min_value=1, max_value=1000))
def test_randint_bounds(seed, n):
    rng = Rng.from_seed(seed)
    assert all(0 <= rng.randint(n) < n for _ in range(20))


def test_derive_key_path_sensitivity():
    k = mix64(77)
    assert derive_key(k, "a", 1) != derive_key(k, "a", 2)
    assert derive_key(k, "a") != derive_key(k, "b")
    assert derive_key(k, "a", 1) == derive_key(k, "a", 1)


def test_fnv1a64_known_value():
    # standard FNV-1a test vector
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def _stream_at(key, counter):
    rng = Rng(key)
    rng._ctr = counter
    return rng


_calls = st.lists(st.tuples(st.integers(min_value=0, max_value=2**64 - 1),
                            st.integers(min_value=0, max_value=2**62),
                            st.integers(min_value=0, max_value=41)), max_size=12)


@given(_calls)
def test_normals_at_matches_one_call_at_a_time(calls):
    got = normals_at([k for k, _, _ in calls], [c for _, c, _ in calls], [n for _, _, n in calls])
    want = [_stream_at(k, c).normals(n) for k, c, n in calls]
    assert got.dtype == np.float64
    assert got.tobytes() == np.concatenate([np.empty(0), *want]).tobytes()


@given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(st.integers(0, 21), max_size=8))
def test_skip_normals_reserves_the_draws_of_a_stream(key, sizes):
    # reserving the calls and drawing them later gives the stream's own draws
    drawn, reserved = Rng(key), Rng(key)
    want = [drawn.normals(n) for n in sizes]
    counters = [reserved.skip_normals(n) for n in sizes]
    assert reserved.u64() == drawn.u64()
    got = normals_at([key] * len(sizes), counters, sizes)
    assert got.tobytes() == np.concatenate([np.empty(0), *want]).tobytes()
