"""Tests for the raw-word replay of numpy's draws.

Each draw `Draws` serves must equal the one a numpy `Generator` over the
same PCG64 would make, and each trial's stream the one of
``default_rng(SeedSequence([seed, i]))``. When a numpy release changes how
`integers` or `random` consume words, these tests name the cause before the
golden report digests fail. Crafted words then pin the simulator's
comparisons at exact float ties.
"""
import random
import sys
import threading

import numpy as np
import pytest

from sqpclab import harness
from sqpclab.draws import Draws, as_draws, pcg64_states
from sqpclab.harness import ExperimentSpec, run_trial, trial_rng
from sqpclab.qsim import BellKind, Simulator


def _reference(seed, trial_index):
    return np.random.default_rng(np.random.SeedSequence([seed, trial_index]))


def _replay_matches(draws, generator, rng, calls):
    """Random interleavings of the four call kinds give numpy's values."""
    for _ in range(calls):
        op = rng.randrange(5)
        if op == 0:
            assert draws.random() == generator.random()
        elif op == 1:
            assert draws.integers(2) == generator.integers(2)
        elif op == 2:
            assert draws.integers(4) == generator.integers(4)
        elif op == 3:
            high = 1 << rng.randrange(33)
            assert draws.integers(high) == generator.integers(high), high
        else:
            n = rng.randrange(12)  # odd and even block sizes, and 0
            assert draws.bits(n) == generator.integers(0, 2, size=n).tolist(), n


@pytest.mark.parametrize("block", [1, 2, 3, 7, 256])
def test_interleaved_draws_equal_numpy(block):
    rng = random.Random(block)
    for seed in range(8):
        draws = Draws(np.random.PCG64(seed), block)
        _replay_matches(draws, np.random.default_rng(seed), rng, 2000)


def test_trial_streams_equal_numpy():
    rng = random.Random(5)
    for seed in (0, 5, 2**40 + 17):
        for i in (0, 1, 255, 256, 1000):
            _replay_matches(trial_rng(seed, i, words=3), _reference(seed, i), rng, 500)
    for i in (7000, 12, 2**40 + 700, 9000, 9215, 9216):
        _replay_matches(trial_rng(31, i), _reference(31, i), rng, 20)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3])
def test_blocked_seeding_equals_seed_sequence(seed):
    blocks = ((0, 300), (4000, 40), (2**32 - 30, 30), (2**32, 256), (2**40 + 512, 256))
    for first, count in blocks:
        states = pcg64_states(seed, first, count)
        for offset, (state, inc) in enumerate(states):
            ref = np.random.PCG64(np.random.SeedSequence([seed, first + offset]))
            assert ref.state["state"] == {"state": state, "inc": inc}


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
def test_trial_indices_on_both_sides_of_two_to_the_32(seed):
    """Indices from 2**32 on take two entropy words; the streams stay
    numpy's on both sides, and `pcg64_states` refuses a block across
    2**32."""
    rng = random.Random(seed % 1000)
    for i in range(2**32 - 3, 2**32 + 3):
        _replay_matches(trial_rng(seed, i, words=2), _reference(seed, i), rng, 200)
    with pytest.raises(ValueError):
        pcg64_states(seed, 2**32 - 1, 2)


def test_generator_hands_over_its_buffered_half_word():
    generator = np.random.default_rng(11)
    twin = np.random.default_rng(11)
    assert generator.integers(4) == twin.integers(4)
    assert generator.bit_generator.state["has_uint32"] == 1
    draws = as_draws(generator)
    assert draws.integers(2) == twin.integers(2)  # the buffered high half
    assert draws.random() == twin.random()
    assert draws.bits(3) == twin.integers(0, 2, size=3).tolist()
    assert generator.bit_generator.state["has_uint32"] == 0
    assert as_draws(draws) is draws


def test_simulator_seeded_by_an_int_draws_numpy_across_refills(monkeypatch):
    """`Simulator(seed=s)` reads a first block of 8 words and doubles the
    block at each refill; across several refills its draws stay those of
    `default_rng(s)`."""
    blocks = []
    refill = Draws._refill

    def spy(draws, need):
        blocks.append(draws._block)
        refill(draws, need)

    monkeypatch.setattr(Draws, "_refill", spy)
    rng = random.Random(4)
    for seed in (0, 9, 2**40 + 3, 2**63 - 1):
        blocks.clear()
        sim = Simulator(seed=seed)
        _replay_matches(sim._rng, np.random.default_rng(seed), rng, 300)
        assert len(blocks) >= 4
        assert blocks == [8 << k for k in range(len(blocks))]


def test_integers_rejects_a_range_it_cannot_replay():
    draws = as_draws(3)
    for high in (3, 6, 2**32 + 1, 2**33, 0):
        with pytest.raises(ValueError, match="power of two"):
            draws.integers(high)
    assert draws.integers(1) == 0  # numpy draws nothing for one value
    assert draws.random() == np.random.default_rng(3).random()
    with pytest.raises(TypeError, match="PCG64"):
        as_draws(np.random.Generator(np.random.MT19937(3)))


def test_streams_sharing_a_source_stay_exact_past_their_first_block():
    """Two trial streams of neighbouring indices, read in turn one word at
    a time; each refill continues its own PCG64, whatever the other read in
    between."""
    first, second = trial_rng(9, 40, words=1), trial_rng(9, 41, words=1)
    ref_first, ref_second = _reference(9, 40), _reference(9, 41)
    for _ in range(50):
        assert first.random() == ref_first.random()
        assert second.bits(3) == ref_second.integers(0, 2, size=3).tolist()
        assert first.integers(4) == ref_first.integers(4)


def test_unequal_redraws_past_the_first_block_stay_exact(monkeypatch):
    """Unequal secrets at L=1 redraw y until it differs from x; with a
    one-word first block the redraws refill again and again, and the draws
    and the trial reports still match numpy's stream."""
    spec = ExperimentSpec(protocol="improved", secret_bits=1, secrets="unequal", seed=4, trials=60)
    redraws = 0
    for i in range(spec.trials):
        draws, generator = trial_rng(spec.seed, i, 1), _reference(spec.seed, i)
        bits = draws.bits(5)
        assert bits == generator.integers(0, 2, size=5).tolist()
        y = bits[4:]
        for _ in range(64):
            if y != bits[3:4]:
                break
            y = draws.bits(1)
            assert y == generator.integers(0, 2, size=1).tolist()
            redraws += 1
        assert draws.random() == generator.random()
    assert redraws > 20

    seen = []

    def short_block(seed, trial_index, words=256):
        seen.append(trial_index)
        return trial_rng(seed, trial_index, 1)

    long_reports = [run_trial(spec, i) for i in range(spec.trials)]
    monkeypatch.setattr(harness, "trial_rng", short_block)
    assert [run_trial(spec, i) for i in range(spec.trials)] == long_reports
    assert seen == list(range(spec.trials))


# -- exact float ties, from crafted words --------------------------------------------


class _Words:
    """A bit generator stub whose raw words are given."""

    def __init__(self, *words):
        self.words = list(words)

    def random_raw(self, count):
        taken, self.words = self.words[:count], self.words[count:]
        return np.array(taken + [0] * (count - len(taken)), dtype=np.uint64)


def _crafted(*words):
    return Simulator(Draws(_Words(*words), block=1))


def test_crafted_words_give_exact_uniforms():
    draws = Draws(_Words(2**11 - 1, 0x7FFFFFFFFFFFF800), block=1)
    assert draws.random() == 0.0  # below 2**11: u is 0 exactly
    assert draws.random() == 0.5 - 2.0**-53


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


def test_streams_sharing_a_source_stay_exact_across_threads():
    """Each trial stream reads a PCG64 of its own, so four threads
    refilling from one-word first blocks, with no lock, still get numpy's
    draws."""
    failures = []

    def check(offset):
        try:
            for i in range(offset, 64, 4):
                draws, reference = trial_rng(21, i, words=1), _reference(21, i)
                for _ in range(40):
                    if draws.random() != reference.random():
                        failures.append(i)
                        return
        except Exception as exc:  # reported below; a thread cannot raise into the test
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
