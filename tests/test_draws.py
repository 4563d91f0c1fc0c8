"""Tests for the raw-word terms of numpy's draws and seeding.

`pcg64_states`, the batched engine's seeding, must give the PCG64 state of
``SeedSequence([seed, i])`` for every trial index i. The tests' word
replay (`word_replay.WordReplay`) must draw what a numpy `Generator` over
the same words draws: when a numpy release changes how `integers` or
`random` consume words, this names the cause before the lane tests and the
golden report digests fail. Crafted words then pin the simulator's
comparisons at exact float ties.
"""
import random

import numpy as np
import pytest

from sqpclab.batch import pcg64_states
from sqpclab.qsim import BellKind, Simulator

from word_replay import WordReplay


def _replay_matches(replay, generator, rng, calls):
    """Random interleavings of the four call kinds give numpy's values."""
    for _ in range(calls):
        op = rng.randrange(5)
        if op == 0:
            assert replay.random() == generator.random()
        elif op == 1:
            assert replay.integers(2) == generator.integers(2)
        elif op == 2:
            assert replay.integers(4) == generator.integers(4)
        elif op == 3:
            high = 1 << rng.randrange(1, 33)
            assert replay.integers(high) == generator.integers(high), high
        else:
            n = rng.randrange(12)  # odd and even block sizes, and 0
            got = replay.integers(0, 2, size=n).tolist()
            assert got == generator.integers(0, 2, size=n).tolist(), n


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 256])
def test_interleaved_draws_equal_numpy(seed):
    """The replay over a PCG64's raw words draws what a `Generator` over
    the same PCG64 draws, for an int seed and a trial's SeedSequence."""
    rng = random.Random(seed)
    for source in (seed, np.random.SeedSequence([seed, 2**32 + seed])):
        replay = WordReplay(np.random.PCG64(source).random_raw(12_000))
        _replay_matches(replay, np.random.default_rng(source), rng, 2000)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3, 2**200 + 7])
def test_blocked_seeding_equals_seed_sequence(seed):
    """Seeds of one to seven 32-bit words: from four on, the entropy words
    past the pool's four, the index's among them, mix in as extra words."""
    blocks = ((0, 300), (4000, 40), (2**32 - 30, 30), (2**32, 256), (2**40 + 512, 256))
    for first, count in blocks:
        limbs = pcg64_states(seed, first, count)
        assert limbs.shape == (count, 4) and limbs.dtype == np.uint64
        for offset, (state_low, state_high, inc_low, inc_high) in enumerate(limbs.tolist()):
            ref = np.random.PCG64(np.random.SeedSequence([seed, first + offset]))
            state, inc = state_high << 64 | state_low, inc_high << 64 | inc_low
            assert ref.state["state"] == {"state": state, "inc": inc}


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_trial_indices_on_both_sides_of_two_to_the_32(seed):
    """Indices from 2**32 on take two entropy words; `pcg64_states` seeds
    each index on both sides as numpy's SeedSequence does, and refuses a
    block across 2**32."""
    for i in range(2**32 - 3, 2**32 + 3):
        (state_low, state_high, inc_low, inc_high), = pcg64_states(seed, i, 1).tolist()
        ref = np.random.PCG64(np.random.SeedSequence([seed, i]))
        state, inc = state_high << 64 | state_low, inc_high << 64 | inc_low
        assert ref.state["state"] == {"state": state, "inc": inc}
    with pytest.raises(ValueError):
        pcg64_states(seed, 2**32 - 1, 2)


# -- exact float ties, from crafted words --------------------------------------------


def _crafted(*words):
    return Simulator(WordReplay(words))


def test_crafted_words_give_exact_uniforms():
    replay = WordReplay([2**11 - 1, 0x7FFFFFFFFFFFF800])
    assert replay.random() == 0.0  # below 2**11: u is 0 exactly
    assert replay.random() == 0.5 - 2.0**-53


def test_z_measurement_of_zero_never_gives_one_at_u_zero():
    """`u < p1` with p1 = 0: u = 0.0 must still give outcome 0."""
    for word in (0, 2**11 - 1):
        sim = _crafted(word)
        assert sim.measure_z(sim.prepare_basis(0)) == 0
        sim = _crafted(word)
        assert sim.measure_z(sim.prepare_basis(1)) == 1


def test_bell_measurement_of_a_product_never_gives_phi_at_u_zero():
    """|01> has no Phi component: at u = 0.0 the strict `draw < bound`
    skips the zero-width Phi bins and lands on Psi+."""
    sim = _crafted(0)
    a, b = sim.prepare_basis(0), sim.prepare_basis(1)
    assert sim.measure_bell(a, b) is BellKind.PSI_PLUS


def test_bell_draw_is_scaled_by_the_total_weight():
    """|10>'s Bell weights sum to 1 - 2**-52, not 1, and the Psi+ bound is
    0.5 - 2**-53. The word giving u = 0.5 - 2**-53 lands below the bound
    when u is multiplied by the total, and above it when divided."""
    sim = _crafted(0x7FFFFFFFFFFFF800)
    a, b = sim.prepare_basis(1), sim.prepare_basis(0)
    sim.merge(a, b)
    state = sim._resolve(a)[1]
    assert sim.measure_bell(a, b) is BellKind.PSI_PLUS
    total, cumulative, _ = state.bell[(0, 1)]
    assert total == 1 - 2.0**-52 and cumulative[2] == 0.5 - 2.0**-53
