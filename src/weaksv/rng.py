"""Portable counter-based random number generator.

All randomness in the package flows through this module so that corpora,
batch plans and training runs are bit-reproducible across runs, platforms
and (in principle) reimplementations in other languages.

The generator is stateless per draw: output block ``i`` of a stream with
key ``k`` is ``mix64(k + (i + 1) * GAMMA)`` where ``mix64`` is the
splitmix64 finalizer and GAMMA its 64-bit golden-ratio increment.
Substreams are derived by hashing path tokens (ints, or strings via
FNV-1a) into a child key, so parallel and serial generation orders agree.

Floats take the top 53 bits of a block; normals use Box-Muller on pairs
of uniforms. A stream is reproducible given the same sequence of draw
calls. Because a draw depends only on (key, counter), a caller may
reserve normals calls on a stream (``skip_normals``) and draw many of
them later in one array pass (``normals_at``) with the same values;
``u64_at``, ``floats_at``, ``randints_at``, ``derive_keys`` and
``Rng.randints`` do the same for plain draws, floats, randint calls,
child keys and successive ``randint`` calls.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3

_INV_2_53 = 2.0 ** -53
_TWO_PI = 2.0 * np.pi


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def fnv1a64(s: str) -> int:
    """FNV-1a hash of a UTF-8 string, for stream-name tokens."""
    h = _FNV_OFFSET
    for b in s.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def derive_key(key: int, *tokens: int | str) -> int:
    """Derive a child stream key from path tokens."""
    k = key & _MASK
    for t in tokens:
        ti = fnv1a64(t) if isinstance(t, str) else (t & _MASK)
        k = mix64(((k + _GAMMA) & _MASK) ^ mix64(ti))
    return k


def derive_keys(keys, tokens) -> np.ndarray:
    """derive_key(keys[i], tokens[i]) over integer tokens in one array pass; keys may be one int."""
    t = np.array(tokens, ndmin=1).astype(np.uint64)  # two's complement, as t & _MASK
    k = np.broadcast_to(np.asarray(keys, dtype=np.uint64), t.shape)
    return _mix64_array((k + np.uint64(_GAMMA)) ^ _mix64_array(t))


def u64_at(keys, counters) -> np.ndarray:
    """Rng(keys[i]).u64() drawn at counter counters[i], for all i in one pass; keys may be one int."""
    ctr = np.array(counters, dtype=np.uint64, ndmin=1) + np.uint64(1)
    return _mix64_array(np.asarray(keys, dtype=np.uint64) + ctr * np.uint64(_GAMMA))


def floats_at(keys, counters) -> np.ndarray:
    """Rng(keys[i]).float() drawn at counter counters[i], for all i in one pass."""
    return (u64_at(keys, counters) >> np.uint64(11)) * _INV_2_53


def randints_at(keys, counters, bounds) -> np.ndarray:
    """Rng(keys[i]).randint(bounds[i]) drawn at counter counters[i], for all i in one pass."""
    return (u64_at(keys, counters) % np.asarray(bounds, dtype=np.uint64)).astype(np.int64)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from an even number of blocks, two per pair."""
    # u1 in (0, 1] so the log is finite; u2 in [0, 1)
    u1 = ((u[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = ((u[1::2] >> np.uint64(11)).astype(np.float64)) * _INV_2_53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = _TWO_PI * u2
    out = np.empty(u.size, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out


def normals_at(keys, counters, sizes) -> np.ndarray:
    """Many normals calls on any streams in one Box-Muller pass.

    Call i is Rng(keys[i]).normals(sizes[i]) started at counter
    counters[i] (see Rng.skip_normals); the result is the calls' values
    concatenated in order, bitwise equal to making them one by one. An
    odd-sized call still consumes a whole pair, whose second value is
    dropped.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    blocks = 2 * ((sizes + 1) // 2)
    ends = np.cumsum(blocks)
    total = int(ends[-1]) if ends.size else 0
    # block j of call i sits at counter counters[i] + 1 + j of stream keys[i]
    ctr = np.arange(total, dtype=np.uint64) + np.repeat(
        np.asarray(counters, dtype=np.uint64) + np.uint64(1) - (ends - blocks).astype(np.uint64), blocks)
    out = _box_muller(_mix64_array(np.repeat(np.asarray(keys, dtype=np.uint64), blocks)
                                   + ctr * np.uint64(_GAMMA)))
    padded = ends[sizes % 2 == 1] - 1
    return np.delete(out, padded) if padded.size else out


class Rng:
    """One stream of the counter-based generator."""

    __slots__ = ("key", "_ctr")

    def __init__(self, key: int):
        self.key = key & _MASK
        self._ctr = 0

    @classmethod
    def from_seed(cls, seed: int, *path: int | str) -> "Rng":
        """Root stream for a seed, optionally scoped by path tokens."""
        return cls(derive_key(mix64((seed & _MASK) + _GAMMA), *path))

    def spawn(self, *tokens: int | str) -> "Rng":
        """Independent substream; does not consume from this stream."""
        return Rng(derive_key(self.key, *tokens))

    def u64(self) -> int:
        self._ctr += 1
        return mix64((self.key + self._ctr * _GAMMA) & _MASK)

    def _block(self, n: int) -> np.ndarray:
        idx = np.arange(self._ctr + 1, self._ctr + n + 1, dtype=np.uint64)
        self._ctr += n
        z = np.uint64(self.key) + idx * np.uint64(_GAMMA)
        return _mix64_array(z)

    def float(self) -> float:
        """Uniform in [0, 1)."""
        return (self.u64() >> 11) * _INV_2_53

    def floats(self, n: int) -> np.ndarray:
        return ((self._block(n) >> np.uint64(11)).astype(np.float64)) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; consumes 2*ceil(n/2) blocks."""
        return _box_muller(self._block(2 * ((n + 1) // 2)))[:n]

    def skip_normals(self, n: int) -> int:
        """Advance past a normals(n) call without drawing it.

        Returns the counter the call starts from; normals_at with this
        stream's key and that counter draws the same n values.
        """
        start = self._ctr
        self._ctr += 2 * ((n + 1) // 2)
        return start

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is < n / 2**64."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        return self.u64() % n

    def randints(self, bounds) -> np.ndarray:
        """Successive randint(bounds[i]) calls, drawn in one block."""
        bounds = np.array(bounds, dtype=np.int64, ndmin=1)
        if bounds.size and bounds.min() <= 0:
            raise ValueError("randint bound must be positive")
        return (self._block(bounds.size) % bounds.astype(np.uint64)).astype(np.int64)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(len(seq))]
