"""Deterministic RNG stream derivation.

All randomness in the package flows through Philox (a counter-based 64-bit
generator) seeded via ``numpy.random.SeedSequence`` spawn keys, so any
(seed, context-key...) pair names the same stream on every platform and
regardless of scheduling.

A Philox stream is fully named by its 2-word key: the stream (seed, key...)
starts at counter 0 under the key ``SeedSequence(seed, spawn_key=key)
.generate_state(2, np.uint64)``. A batch of restarts therefore needs one
generator, re-keyed per stream (``Streams``), and its keys come from one
vectorized pass (``stream_keys``) that reproduces SeedSequence's hash bit
for bit: the entropy assembly, ``mix_entropy`` and ``generate_state`` of
O'Neill's seed_seq design, as numpy documents it. ``spawn_rng`` stays the
public derivation of a single stream and the reference the pass is tested
against.
"""
from __future__ import annotations

import numpy as np

MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def check_seed(seed) -> int:
    """seed as an int: a non-negative integer (a bool or a numpy integer
    too), else a ValueError that names it."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent Philox stream for the given seed and context key."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def spawn_seed(seed: int, *key: int) -> int:
    """Derived 64-bit integer seed for handing to a nested component: word 0
    of the stream (seed, key...)'s Philox key."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


class Streams:
    """A batch of named Philox streams on one generator, from their keys
    (w, 2) uint64. ``streams[j]`` re-keys the generator to stream j at
    counter 0 and returns it: the generator spawn_rng would return for that
    stream, bit for bit. ``streams[a:b]`` is the sub-batch on the same
    generator. Taking a stream restarts the shared generator, so a stream's
    draws are done before the next one is taken, in any batch on it."""

    def __init__(self, keys: np.ndarray, generator: np.random.Generator | None = None):
        self.keys = keys
        if generator is None:
            # any key serves: taking a stream re-keys the generator
            generator = np.random.Generator(np.random.Philox(key=0))
        self.generator = generator
        zero = np.zeros(4, dtype=np.uint64)
        self._state = {"bit_generator": "Philox", "state": {"counter": zero, "key": None},
                       "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return Streams(self.keys[j], self.generator)
        self._state["state"]["key"] = self.keys[j]
        self.generator.bit_generator.state = self._state
        return self.generator


def spawn_streams(seed: int, *columns) -> Streams:
    """The batch of streams (seed, c0[j], c1[j], ...) for key columns as in
    stream_keys: stream j is spawn_rng(seed, c0[j], c1[j], ...)."""
    return spawn_batches(seed, *columns)[-1]


def spawn_batches(seed: int, *columns) -> list[Streams]:
    """One batch per prefix of the key columns, from one stream_keys pass,
    on one generator: batch i holds the streams (seed, c0[j], ..., ci[j]).
    Streams that share a key prefix share its mixing."""
    first, *rest = stream_keys(seed, *columns)
    first = Streams(first)
    return [first, *(Streams(keys, first.generator) for keys in rest)]


def stream_keys(seed: int, *columns) -> list[np.ndarray]:
    """Philox keys of the streams (seed, c0[j]), (seed, c0[j], c1[j]), ...:
    one (w, 2) uint64 array per prefix of the key columns, row j equal to
    ``SeedSequence(seed, spawn_key=(c0[j], ...)).generate_state(2,
    np.uint64)``. A column is one non-negative integer, shared by every row,
    or a sequence of w of them.

    The run entropy (the seed) fills and mixes SeedSequence's pool the same
    way for every row, so that is done once, on Python ints. The key words
    are then mixed into a pool of uint32 arrays, one lane per row. Rows
    whose entries split into different numbers of 32-bit words take
    different hash steps, so such a batch is derived row by row."""
    pool, const = _seed_pool(check_seed(seed))
    values = []
    for c in columns:
        c = [int(v) for v in c] if np.ndim(c) else int(c)
        if min(c if isinstance(c, list) else [c], default=0) < 0:
            raise ValueError(f"stream key entries must be non-negative, got {c}")
        values.append(c)
    lists = [c for c in values if isinstance(c, list)]
    w = len(lists[0]) if lists else 1
    # word counts rise with the value, so equal counts at the ends mean
    # equal counts throughout
    if all(_words(min(c, default=0)) == _words(max(c, default=0)) for c in lists):
        return _key_pass(np.repeat(pool, w, axis=1), const, values)
    rows = [stream_keys(seed, *(c[j] if isinstance(c, list) else c for c in values))
            for j in range(w)]
    return [np.concatenate(keys) for keys in zip(*rows)]


def _words(n: int) -> int:
    """How many uint32 words SeedSequence splits the integer n >= 0 into."""
    return max(1, -(-n.bit_length() // 32))


def _split(n: int) -> list[int]:
    """The uint32 words of the integer n >= 0, lowest first."""
    return [n >> 32 * i & MASK32 for i in range(_words(n))]


def _consts(const: int, mult: int, count: int) -> list[int]:
    """A running hash constant and its next count values."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & MASK32)
    return out


def _hashmix(value, const, nxt):
    """SeedSequence's hashmix of a word at the hash constant const, which
    then steps to nxt; ints, or uint32 arrays that broadcast."""
    value = (value ^ const) * nxt & MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two words, ints or uint32 arrays."""
    r = ((_MIX_L * x & MASK32) - (_MIX_R * y & MASK32)) & MASK32
    return r ^ r >> 16


# generate_state hashes pool word i at constants _STATE[i] and _STATE[i + 1]
_STATE = np.array(_consts(_INIT_B, _MULT_B, _POOL), dtype=np.uint32)[:, None]


def _seed_pool(seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence's pool (4, 1) after mixing the run entropy of a spawned
    sequence (the seed's words, zero-padded to the pool size), and the hash
    constant that the key words continue from. The pool is filled and mixed
    on ints; run words past the pool size are absorbed as key words are."""
    words = _split(seed)
    words += [0] * (_POOL - len(words))
    c = _consts(_INIT_A, _MULT_A, _POOL * _POOL)
    pool = [_hashmix(words[i], c[i], c[i + 1]) for i in range(_POOL)]
    t = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], c[t], c[t + 1]))
                t += 1
    pool, const = np.array(pool, dtype=np.uint32)[:, None], c[t]
    for word in words[_POOL:]:
        pool, const = _absorb(pool, const, word)
    return pool, const


def _absorb(pool: np.ndarray, const: int, word) -> tuple[np.ndarray, int]:
    """Mix one entropy word past the pool size into every word of the pool
    (4, w): the word is an int, or a uint32 array with one per row."""
    c = np.array(_consts(const, _MULT_A, _POOL), dtype=np.uint32)[:, None]
    return _mix(pool, _hashmix(word, c[:-1], c[1:])), int(c[-1, 0])


def _key_pass(pool: np.ndarray, const: int, columns: list) -> list[np.ndarray]:
    """stream_keys from the seed's pool (4, w), one lane per row, for rows
    whose list columns have one word count each."""
    keys = []
    for c in columns:
        if isinstance(c, list):
            words = [np.array([v >> 32 * i & MASK32 for v in c], dtype=np.uint32)
                     for i in range(_words(max(c, default=0)))]
        else:
            words = _split(c)
        for word in words:
            pool, const = _absorb(pool, const, word)
        # generate_state(2, np.uint64): four hashed pool words, read as two
        # little-endian uint64 words
        state = _hashmix(pool, _STATE[:-1], _STATE[1:])
        keys.append(np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64))
    return keys
