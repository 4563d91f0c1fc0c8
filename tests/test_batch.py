"""Tests for the batched trial engine and its transition table.

The batched engine is proven against the scalar one by exact equality: every
lane's report fields must equal the `TrialReport` that `run_trial` gives the
same trial, for every (protocol, attack) pair, secret length, secrets mode
and setting below, and for crafted words that land on exact float ties.
"""
import inspect
import itertools
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sqpclab import batch, harness, qsim
from sqpclab.adversary import ATTACKS
from sqpclab.batch import REASONS, Lanes, run_chunk, transition_table
from sqpclab.draws import Draws
from sqpclab.harness import ExperimentSpec, run_experiment, run_trial
from sqpclab.protocol import ComparisonOutcome, TrialReport

PAIRS = [(p, a) for p in ("jiang", "improved") for a in ATTACKS]
SEEDS = (3, 17, 2**32 + 5)
MODES = ("random", "equal", "unequal", "explicit")
# One (threshold, secrets) setting per (secret length, seed) cell of a pair,
# so each pair meets both thresholds and all four secrets modes.
SETTINGS = {
    (L, seed): (threshold, mode)
    for (L, seed), (threshold, mode) in zip(
        itertools.product((1, 8, 64), SEEDS),
        itertools.cycle(itertools.product((0.0, 0.1), MODES)),
    )
}


def _explicit(L: int) -> str:
    """Two different explicit secrets of L bits."""
    return f"explicit:{(1 << L) - 1:X},{(1 << L) // 3:X}"


def _spec(protocol, attack, L, seed=3, threshold=0.0, mode="random", **settings):
    secrets = _explicit(L) if mode == "explicit" else mode
    return ExperimentSpec(
        protocol=protocol, attack=attack, secret_bits=L, seed=seed,
        threshold=threshold, secrets=secrets, trials=1, **settings,
    )


def _reports(lanes: Lanes) -> list[TrialReport]:
    """The `TrialReport` each lane stands for."""
    reports = []
    for lane in zip(*(field.tolist() for field in lanes)):
        code, first, correct, n, m, case1, errors, mismatches, recovered = lane
        if REASONS[code] is None:
            outcome = ComparisonOutcome(first == 0, first_differing_ordinal=first or None)
        else:
            outcome, correct = ComparisonOutcome(None, abort_reason=REASONS[code]), None
        reports.append(TrialReport(
            outcome, correct, n, m, case1, errors, mismatches,
            None if recovered < 0 else bool(recovered),
        ))
    return reports


def _assert_equal(spec, first, count, read=None):
    expected = [run_trial(spec, t) for t in range(first, first + count)]
    lanes = run_chunk(spec, first, count, read)
    assert _reports(lanes) == expected
    assert lanes.detected.tolist() == [r.detected for r in expected]


# -- the transition table ------------------------------------------------------------


def test_table_is_closed_and_within_its_bound():
    table = transition_table()
    size = len(table.states)
    assert size <= batch.MAX_TABLE_STATES
    small = table.qubits <= 2
    for column in (table.z_post, table.bell_post, table.kron):
        assert column.max() < size and column.min() >= -1
    # Every register of up to 2 qubits is measured at every position and
    # ordered pair; every merge of two of them into 3 qubits is present.
    for state in np.flatnonzero(small):
        n = table.qubits[state]
        for pos in range(4):
            assert np.isnan(table.z_p1[4 * state + pos]) == (pos >= n)
        for a, b in itertools.product(range(4), repeat=2):
            present = a != b and a < n and b < n
            assert np.isnan(table.bell_total[16 * state + 4 * a + b]) != present
    for a, b in itertools.product(np.flatnonzero(small), repeat=2):
        merged = table.kron[a, b]
        assert (merged >= 0) == (table.qubits[a] + table.qubits[b] <= 3)
        if merged >= 0:
            assert table.qubits[merged] == table.qubits[a] + table.qubits[b]
    # Slots the closure does not compute hold NaN and no post-state.
    assert (table.z_post.reshape(-1, 2)[np.isnan(table.z_p1)] == -1).all()
    assert (table.bell_post[np.isnan(table.bell_total)] == -1).all()
    # Posts of a measurement keep their register's size.
    for slot in np.flatnonzero(~np.isnan(table.z_p1)):
        for post in table.z_post[2 * slot : 2 * slot + 2]:
            assert post < 0 or table.qubits[post] == table.qubits[slot // 4]
    # Ids 0 and 1 are |0> and |1>, 2 to 5 the Bell states in BellKind order.
    prepared = [qsim._Z_BASIS[0], qsim._Z_BASIS[1], *qsim._BELL_BASIS]
    for state, amplitudes in zip(table.states, prepared):
        assert np.array_equal(state.amplitudes, amplitudes)


def test_table_entries_equal_the_scalar_engines_memos(monkeypatch):
    """A 12-pair scalar run, on an empty intern table, memoizes the
    transitions it takes; each equals the table's, float for float."""
    table = transition_table()
    monkeypatch.setattr(qsim, "_STATES", {})
    monkeypatch.setattr(qsim, "_PREPARED", [None] * 6)
    for (protocol, attack), L in itertools.product(PAIRS, (1, 8)):
        for t in range(12):
            run_trial(_spec(protocol, attack, L), t)
    ids = {state.key: i for i, state in enumerate(table.states)}

    def id_of(state):
        return -1 if state is None else ids[state.key]

    seen = 0
    for state in qsim._STATES.values():
        i = ids[state.key]
        for pos, (p1, posts) in state.z.items():
            assert table.z_p1[4 * i + pos] == p1
            assert table.z_post[8 * i + 2 * pos : 8 * i + 2 * pos + 2].tolist() == [
                id_of(p) for p in posts
            ]
            seen += 1
        for (a, b), (total, cumulative, posts) in state.bell.items():
            slot = 16 * i + 4 * a + b
            assert table.bell_total[slot] == total
            assert table.bell_cum[slot].tolist() == cumulative
            assert table.bell_post[slot].tolist() == [id_of(p) for p in posts]
            seen += 1
        for key, merged in state.kron.items():
            assert table.kron[i, ids[key]] == ids[merged.key]
            seen += 1
    assert len(qsim._STATES) >= 30 and seen >= 45


def test_table_is_built_lazily():
    """Importing the package builds no table; the first batched chunk does."""
    code = (
        "import sqpclab, sqpclab.cli\n"
        "from sqpclab import batch\n"
        "assert batch.transition_table.cache_info().currsize == 0\n"
        "sqpclab.run_experiment(sqpclab.ExperimentSpec(protocol='jiang', trials=40))\n"
        "assert batch.transition_table.cache_info().currsize == 1\n"
    )
    src = os.path.dirname(os.path.dirname(qsim.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


# -- exact equality with the scalar engine ---------------------------------------------


@pytest.mark.parametrize("L, lanes", [(1, 40), (8, 24), (64, 8)])
@pytest.mark.parametrize("protocol, attack", PAIRS)
def test_lanes_equal_scalar_reports(protocol, attack, L, lanes):
    for seed in SEEDS:
        threshold, mode = SETTINGS[(L, seed)]
        _assert_equal(_spec(protocol, attack, L, seed, threshold, mode), 0, lanes)


@pytest.mark.parametrize("protocol, attack", PAIRS)
def test_lanes_equal_scalar_reports_at_other_settings(protocol, attack):
    """Non-default p_ctrl and p_detect, and a threshold of 0.6, which a
    single failed check of one exceeds and one of two does not."""
    settings = {"p_ctrl": 0.3} if protocol == "jiang" else {"p_ctrl": 0.3, "p_detect": 0.7}
    for L, mode in ((1, "unequal"), (8, "random")):
        _assert_equal(_spec(protocol, attack, L, 9, 0.1, mode, **settings), 0, 30)
        _assert_equal(_spec(protocol, attack, L, 9, 0.6, mode), 0, 40)


@pytest.mark.parametrize("protocol, attack", PAIRS)
def test_chunks_of_every_size_equal_scalar_reports(protocol, attack):
    """Chunks of 1, 8, 40 and 256 lanes, and a chunk of the second seed
    block; unequal secrets at L=1 redraw y often enough that some lanes
    read their rows again from further on."""
    for count in (1, 8, 40):
        _assert_equal(_spec(protocol, attack, 8, 5), 0, count)
    spec = _spec(protocol, attack, 1, 2**32 + 1, mode="unequal")
    _assert_equal(spec, 0, 256)
    _assert_equal(spec, 256, 44)


def test_experiment_across_a_seed_block_equals_the_scalar_fold(monkeypatch):
    """300 trials run as a 256-lane chunk and a 44-lane one; the report
    equals the one folded from scalar trials."""
    spec = ExperimentSpec(protocol="improved", attack="outside", secret_bits=2, trials=300, seed=8)
    batched = run_experiment(spec)
    monkeypatch.setattr(harness, "BATCH_MIN_LANES", spec.trials + 1)
    assert run_experiment(spec) == batched


# -- crafted words -----------------------------------------------------------------------

# u = 0.0 exactly, u = 0.0 from the largest word below 2**11, u = 0.5 - 2**-53
# (|10>'s Psi+ bound, which only `u * total` keeps below the bound), and the
# largest word.
TIES = (0, 2**11 - 1, 0x7FFFFFFFFFFFF800, 2**64 - 1)


class _Row:
    """A bit generator stub serving one lane's crafted words."""

    def __init__(self, words):
        self.words, self.read = words, 0

    def random_raw(self, count):
        self.read += count
        return self.words[self.read - count : self.read]


@pytest.mark.parametrize("protocol, attack", PAIRS)
def test_crafted_tie_words_give_scalar_reports(protocol, attack, monkeypatch):
    """Each lane's words mix the tie words with random ones; both engines
    read them and must agree."""
    rng = np.random.default_rng(PAIRS.index((protocol, attack)))
    for L, mode in ((1, "unequal"), (2, "random")):
        spec = _spec(protocol, attack, L, mode=mode)
        count = 64
        shape = (count, 1024)
        ties = np.array(TIES, dtype=np.uint64)[rng.integers(len(TIES), size=shape)]
        rows = np.where(rng.random(shape) < 0.6, ties, rng.integers(2**64, size=shape, dtype=np.uint64))

        def read(lanes, starts, width):
            return np.array([rows[lane, start : start + width] for lane, start in zip(lanes, starts)])

        monkeypatch.setattr(harness, "trial_rng", lambda seed, t, words: Draws(_Row(rows[t]), 64))
        _assert_equal(spec, 0, count, read)


# -- engine choice and bounds ----------------------------------------------------------


def test_engine_is_chosen_by_chunk_size(monkeypatch):
    """Sweep-l8- and long-l64-shaped experiments never run a trial on the
    scalar engine; a chunk below BATCH_MIN_LANES always does."""

    def refuse(spec, trial_index):
        raise AssertionError("scalar engine called")

    monkeypatch.setattr(harness, "run_trial", refuse)
    run_experiment(ExperimentSpec(protocol="improved", attack="outside", secret_bits=8, trials=200))
    for protocol in ("jiang", "improved"):
        run_experiment(ExperimentSpec(protocol=protocol, secret_bits=64, trials=8))
    with pytest.raises(AssertionError, match="scalar engine called"):
        run_experiment(ExperimentSpec(protocol="jiang", secret_bits=8, trials=harness.BATCH_MIN_LANES - 1))


def test_long_trials_run_in_smaller_chunks(monkeypatch):
    """Chunks shrink by halves until lanes x rounds fits MAX_LANE_ROUNDS,
    and the report does not change."""
    spec = ExperimentSpec(protocol="improved", attack="outside", secret_bits=8, trials=100, seed=4)
    whole = run_experiment(spec)
    chunks = []

    def spy(spec, first, count):
        chunks.append((first, count))
        return run_chunk(spec, first, count)

    monkeypatch.setattr(harness, "run_chunk", spy)
    monkeypatch.setattr(harness, "MAX_LANE_ROUNDS", 32 * spec.num_rounds())
    assert run_experiment(spec) == whole
    assert chunks == [(0, 32), (32, 32), (64, 32)]  # and 4 trials run scalar


def test_a_lane_never_reads_past_its_row_unnoticed(monkeypatch):
    """With a word budget below the proven worst case, the engine raises
    instead of reading another lane's words: a play budget that is too
    small, and a row that holds the play but not TP's pass."""
    with monkeypatch.context() as patch:
        patch.setattr(batch, "_half_words_per_round", lambda attack, improved: 4)
        with pytest.raises((AssertionError, IndexError)):
            run_chunk(_spec("improved", "measure-resend", 8), 0, 40)

    words = batch.trial_words
    monkeypatch.setattr(batch, "trial_words", lambda spec: words(spec) - 2 * spec.num_rounds())
    for attack in ("none", "participant"):
        with pytest.raises(AssertionError, match="past its row"):
            run_chunk(_spec("jiang", attack, 8), 0, 40)


@pytest.mark.parametrize("mode", ["random", "equal", "explicit", "unequal"])
def test_each_lane_is_read_once(mode, monkeypatch):
    """A chunk reads every lane's row in one call; only unequal-mode lanes
    whose redraws outgrow their rows are read again, from further on."""
    calls = []
    reader = batch._pcg64_reader

    def spying(states):
        read = reader(states)

        def spy(lanes, starts, width):
            calls.append(np.asarray(starts).copy())
            return read(lanes, starts, width)

        return spy

    monkeypatch.setattr(batch, "_pcg64_reader", spying)
    reads = 0
    for (protocol, attack), L in itertools.product(PAIRS, (1, 8)):
        calls.clear()
        run_chunk(_spec(protocol, attack, L, 2**32 + 1, mode=mode), 0, 64)
        assert not calls[0].any()
        assert all(starts.all() for starts in calls[1:])
        reads += len(calls)
    assert (reads > 2 * len(PAIRS)) == (mode == "unequal")


@pytest.mark.parametrize("L, trials", [(1, 40), (8, 12), (64, 4)])
@pytest.mark.parametrize("mode", ["random", "equal", "explicit"])
def test_scalar_trials_read_their_words_once(mode, L, trials, monkeypatch):
    """`run_trial` sizes its first read with `batch.trial_words`, so no
    trial of any pair reads its stream a second time."""
    refills = []
    refill = Draws._refill

    def spy(draws, need):
        refills.append(need)
        refill(draws, need)

    monkeypatch.setattr(Draws, "_refill", spy)
    for protocol, attack in PAIRS:
        spec = _spec(protocol, attack, L, mode=mode)
        for t in range(trials):
            refills.clear()
            run_trial(spec, t)
            assert refills[0] == batch.trial_words(spec)
            assert len(refills) == 1, (protocol, attack, t)


def test_a_chunk_stays_within_its_stated_memory():
    """A batched chunk's traced peak, for the most word-hungry pair, stays
    within the bytes per lane-round that `MAX_LANE_ROUNDS` is sized by."""
    stated = re.search(r"near (\d+) bytes per lane-round", inspect.getsource(harness))
    transition_table()
    for L, lanes in ((64, 256), (128, 128)):
        spec = _spec("improved", "measure-resend", L)
        assert lanes * spec.num_rounds() <= harness.MAX_LANE_ROUNDS
        run_chunk(spec, 0, 16)
        tracemalloc.start()
        try:
            run_chunk(spec, 0, lanes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= int(stated.group(1)) * lanes * spec.num_rounds(), (L, peak)


def test_word_budget_is_a_worst_case():
    """The per-round bound covers the pair's most word-hungry round: the
    improved measure-resend round plays with 8.5 words at most."""
    hungry = batch._half_words_per_round(ATTACKS["measure-resend"], True)
    assert hungry == 17
    assert all(
        batch._half_words_per_round(attack, improved) <= hungry
        for attack in ATTACKS.values()
        for improved in (False, True)
    )
