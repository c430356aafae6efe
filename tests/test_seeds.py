"""Stream derivation: batched Philox keys are SeedSequence's, bit for bit.

numpy's SeedSequence is the specification: ``stream_keys`` must give the key
``SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)`` for every
seed and key, and a re-keyed ``Streams`` generator must draw what
``spawn_rng`` draws.
"""
import re

import numpy as np
import pytest

from rkmeans._seeds import Streams, check_seed, spawn_rng, spawn_seed, spawn_streams, stream_keys


def _reference(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)


def _entry(rng, big):
    # a key entry: small, or past 2^32 (two words) or 2^64 (three)
    if not big or rng.random() < 0.5:
        return int(rng.integers(0, 60))
    return int(rng.integers(0, 2**62)) << int(rng.integers(0, 70))


def _seed(rng, case):
    # 0, one word, and past 2^32, 2^64 and 2^128 (more words than the pool)
    return [0, int(rng.integers(0, 2**31)), int(rng.integers(0, 2**63)) << 32,
            int(rng.integers(0, 2**63)) << 70, (int(rng.integers(0, 2**63)) << 128) + 5,
            spawn_seed(case, 1)][case % 6]


def test_stream_keys_are_seedsequence_keys():
    # at least 1e5 random (seed, key) tuples, every prefix of every batch
    # counted: key lengths 1-4, columns shared or per row, and batches that
    # mix one-word and multiword entries
    rng = np.random.default_rng(2024)
    compared = 0
    case = 0
    while compared < 100_000:
        seed, big = _seed(rng, case), case % 3 == 0
        w, length = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        columns = [_entry(rng, big) if rng.random() < 0.3 else [_entry(rng, big) for _ in range(w)]
                   for _ in range(length)]
        if not any(isinstance(c, list) for c in columns):
            w = 1
        keys = stream_keys(seed, *columns)
        assert len(keys) == length
        for p, got in enumerate(keys):
            assert got.shape == (w, 2) and got.dtype == np.uint64
            tuples = [tuple(c[j] if isinstance(c, list) else c for c in columns[:p + 1])
                      for j in range(w)]
            want = np.array([_reference(seed, key) for key in tuples])
            assert got.tobytes() == want.tobytes(), (seed, tuples)
            compared += w
        case += 1


def test_the_solvers_and_the_labs_keys():
    # the solvers' (seed, r) and (seed, r, 1), the lab's (seed, n, r) and
    # (seed, n, r, 1), whose word 0 is spawn_seed
    for seed in (0, 7, 2**64 - 1, spawn_seed(3, 50, 2, 1)):
        seeding, loading = stream_keys(seed, range(50), 1)
        for r in range(50):
            assert seeding[r].tobytes() == _reference(seed, (r,)).tobytes()
            assert loading[r].tobytes() == _reference(seed, (r, 1)).tobytes()
        for n in (50, 3200):
            _, draws, fits = stream_keys(seed, n, np.arange(20), 1)
            assert fits[:, 0].tolist() == [spawn_seed(seed, n, r, 1) for r in range(20)]
            for r in range(20):
                assert draws[r].tobytes() == _reference(seed, (n, r)).tobytes()


def test_a_rekeyed_generator_draws_as_spawn_rng():
    # each stream, taken in any order and from a sub-batch too, starts where
    # a fresh spawn_rng(seed, key...) starts
    streams = spawn_streams(2**70 + 3, range(6), 1)
    assert len(streams) == 6 and len(streams[2:5]) == 3
    for j in (3, 0, 5, 3, 1):
        got, ref = streams[j], spawn_rng(2**70 + 3, j, 1)
        for draw in (lambda g: g.integers(1000), lambda g: g.integers(2**40, size=7),
                     lambda g: g.random(5), lambda g: g.standard_normal((3, 2)),
                     lambda g: g.choice(9, size=20, p=np.full(9, 1 / 9)),
                     lambda g: g.integers(7), lambda g: g.random()):
            assert np.asarray(draw(got)).tobytes() == np.asarray(draw(ref)).tobytes(), j
        state, want = got.bit_generator.state, ref.bit_generator.state
        assert state["state"]["key"].tolist() == want["state"]["key"].tolist()
        assert state["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    sub = streams[2:5]
    for j in range(3):
        got = sub[j].standard_normal(4)
        assert got.tobytes() == spawn_rng(2**70 + 3, j + 2, 1).standard_normal(4).tobytes()
    keys = stream_keys(9, [4, 2])[0]
    assert Streams(keys)[1].random(3).tobytes() == spawn_rng(9, 2).random(3).tobytes()


@pytest.mark.parametrize("seed", [0, 5, True, np.int64(3), np.uint64(2**64 - 1), 2**130])
def test_integer_seeds_are_accepted(seed):
    assert check_seed(seed) == int(seed)
    assert stream_keys(seed, [1])[0][0].tobytes() == _reference(seed, (1,)).tobytes()


@pytest.mark.parametrize("seed", [-1, np.int64(-7), 1.5, 2.0, "3", None])
def test_other_seeds_are_refused_by_name(seed):
    message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        check_seed(seed)
    with pytest.raises(ValueError, match="non-negative integer"):
        stream_keys(seed, [1])


def test_negative_key_entries_are_refused():
    # a negative entry has no words: SeedSequence refuses it, and so does the
    # pass, rather than splitting it forever
    for columns in (([0, -1],), (-2,), (3, [1, -5])):
        with pytest.raises(ValueError, match="non-negative"):
            stream_keys(1, *columns)
