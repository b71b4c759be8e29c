"""Stream derivation: determinism, path separation, input validation."""

import dataclasses

import numpy as np
import pytest

from survquack import derive_rng, realize_scenario, rng, sim
from survquack.cli import main, parse_scenario_config
from survquack.errors import DomainError
from survquack.rng import _pcg64_states, encode_path_part
from survquack.sim import simulate_sample

import oracles


def test_same_path_same_stream():
    a = derive_rng(42, "x", 3).random(8)
    b = derive_rng(42, "x", 3).random(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_distinct_streams():
    base = derive_rng(42, "x", 3).random(4)
    for other in [(42, "x", 4), (42, "y", 3), (43, "x", 3), (42, 3, "x"), (42, "x")]:
        assert not np.array_equal(derive_rng(other[0], *other[1:]).random(4), base)


def test_string_and_int_parts_do_not_collide():
    assert encode_path_part("1") != encode_path_part(1)
    a = derive_rng(0, "1").random(4)
    b = derive_rng(0, 1).random(4)
    assert not np.array_equal(a, b)


def test_encode_is_stable():
    # first eight bytes of the tag's SHA-256 digest, big-endian
    assert encode_path_part("mw-pivot") == int.from_bytes(
        __import__("hashlib").sha256(b"mw-pivot").digest()[:8], "big"
    )
    assert encode_path_part(7) == 7
    assert encode_path_part(np.int64(7)) == 7


def test_frozen_canaries():
    # frozen outputs guard against silent changes to the derivation rule
    np.testing.assert_array_equal(
        derive_rng(0, "a", 1).integers(0, 1000, 3), [585, 297, 881]
    )
    np.testing.assert_allclose(
        derive_rng(210615, 0, "membership").random(2),
        [0.03121908100309012, 0.04357314807441681],
        rtol=0,
        atol=0,
    )
    np.testing.assert_allclose(
        derive_rng(12, 3).standard_normal(2),
        [-0.1079742917876347, -0.3085384369788455],
        rtol=0,
        atol=0,
    )


def test_rejects_bad_parts():
    with pytest.raises(DomainError):
        encode_path_part(True)
    with pytest.raises(DomainError):
        encode_path_part(-1)
    with pytest.raises(DomainError):
        encode_path_part(1.5)
    with pytest.raises(DomainError):
        derive_rng(3, "ok", -2)


def test_rejects_negative_master_seed():
    with pytest.raises(DomainError):
        derive_rng(-1, "x")


def test_empty_path_is_valid():
    a = derive_rng(5).random(3)
    b = derive_rng(5).random(3)
    np.testing.assert_array_equal(a, b)


def test_bulk_states_match_numpy_seed_sequence():
    # seeds of one to five 32-bit words (2**128 + 7 overflows the four-word
    # pool, so it is not padded) and reps of one and two words, mixed so
    # that the streams are grouped by length and put back in order
    seeds = [0, 5, 2**32 - 1, 2**32, 2**64, 2**64 + 5, 2**128 + 7]
    reps = [0, 2**32 - 1, 2**32, 1, 2**32 + 5, 2**32 - 1]
    tails = [("membership",), ("times", "Rx"), ("times", "C"), (), (2**40, "x")]
    for seed in seeds:
        states = _pcg64_states(seed, reps, tails)
        assert list(states) == tails
        for tail in tails:
            want = [oracles.pcg64_state(seed, rep, *tail) for rep in reps]
            assert states[tail] == want, (seed, tail)
    assert _pcg64_states(7, [], tails[:2]) == {tails[0]: [], tails[1]: []}


def test_bulk_states_encode_and_split_each_rep_once(monkeypatch):
    # one call derives every tail: a rep's words are mixed into the pool
    # once, and each tail continues from a copy of it
    encoded, split = [], []
    encode, words = rng.encode_path_part, rng._words

    def counting_encode(part):
        encoded.append(part)
        return encode(part)

    def counting_words(n):
        split.append(n)
        return words(n)

    monkeypatch.setattr(rng, "encode_path_part", counting_encode)
    monkeypatch.setattr(rng, "_words", counting_words)
    reps = [3, 2**32 + 1, 0, 7]
    tails = [("membership",), ("times", "Rx"), ("times", "C")]
    states = _pcg64_states(2**40 + 9, reps, tails)
    assert sorted(p for p in encoded if isinstance(p, int)) == sorted(reps)
    tail_parts = [part for tail in tails for part in tail]
    assert sorted(p for p in encoded if isinstance(p, str)) == sorted(tail_parts)
    assert sorted(n for n in split if n in reps) == sorted(reps)
    for tail in tails:
        assert states[tail] == [oracles.pcg64_state(2**40 + 9, rep, *tail) for rep in reps]


@pytest.mark.parametrize("seed, rep", [(210615, 0), (5, 2**32 + 1), (2**64 + 5, 7)])
def test_one_row_uniforms_equal_the_block_route(seed, rep):
    # a single rep and a block derive their states by the same route, every
    # tail in one pass; each tail's row is numpy's own stream (rep, *tail)
    # bit for bit, and simulate_sample's trial is the per-trial oracle's
    config = parse_scenario_config("builtin:section3")
    scenario = realize_scenario(dataclasses.replace(config, master_seed=seed, n_total=50))
    one = _pcg64_states(seed, [rep], sim._TAILS)
    block = _pcg64_states(seed, [rep + 1, rep, 2**33], sim._TAILS)
    assert sorted(one) == sorted(block) == [("membership",), ("times", "C"), ("times", "Rx")]
    gen = np.random.Generator(np.random.PCG64(0))
    for tail in one:
        u_one, u_block = sim._uniforms(gen, one[tail], 50), sim._uniforms(gen, block[tail], 50)
        want = oracles.seed_stream(seed, rep, *tail).random(50)
        np.testing.assert_array_equal(u_one[0].view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(u_block[1].view(np.uint64), want.view(np.uint64))
    sample = simulate_sample(scenario, rep)
    want, g_idx = oracles.draw_trial(scenario, rep)
    np.testing.assert_array_equal(sample.time.view(np.uint64), want.view(np.uint64))
    labels = np.array([g.label for g in scenario.subgroups])
    np.testing.assert_array_equal(sample.strata["subgroup"], labels[g_idx])


def test_bulk_states_reject_negative_seeds_and_reps():
    with pytest.raises(DomainError, match="master seed must be nonnegative"):
        _pcg64_states(-1, [0], [("membership",)])
    with pytest.raises(DomainError, match="integer stream path parts must be nonnegative"):
        _pcg64_states(3, [0, -2], [("membership",)])
    with pytest.raises(DomainError, match="integer stream path parts must be nonnegative"):
        _pcg64_states(3, [0], [("membership",), ("times", -1)])


def test_simulate_negative_seed_exits_2(capsys):
    assert main(["simulate", "builtin:section3", "--seed", "-1", "--replications", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "master seed must be nonnegative" in err
