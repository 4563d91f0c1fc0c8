"""Tests for the batched trial engine and its transition table.

The batched engine is proven against the scalar one by exact equality: every
lane's report fields must equal the `TrialReport` that `run_trial` gives the
same trial, for every (protocol, attack) pair, secret length, secrets mode
and setting below, and for crafted words that land on exact float ties.
"""
import ctypes
import inspect
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sqpclab import batch, harness, qsim
from sqpclab.adversary import ATTACKS
from sqpclab.batch import REASONS, Lanes, pcg64_states, run_chunk, transition_table
from sqpclab.harness import ExperimentSpec, run_experiment, run_trial
from sqpclab.protocol import ComparisonOutcome, TrialReport

from scalar_fold import scalar_report
from word_replay import WordReplay

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


def test_experiment_across_a_seed_block_equals_the_scalar_fold():
    """1,100 trials run as a full-width chunk and a 76-lane one; the report
    equals the one folded from scalar trials."""
    spec = ExperimentSpec(protocol="improved", attack="outside", secret_bits=1, trials=1100, seed=8)
    assert spec.trials == batch.SEED_BLOCK + 76
    assert run_experiment(spec) == scalar_report(spec)


def test_chunk_width_never_changes_a_report(monkeypatch):
    """Each lane draws only from its own trial's stream, so an experiment
    reports the same with chunks of 64, 256 or 1024 lanes."""
    spec = ExperimentSpec(protocol="improved", attack="measure-resend", secret_bits=1, trials=1100, seed=9)
    whole = run_experiment(spec).to_dict()
    for block in (64, 256, 1024):
        monkeypatch.setattr(batch, "SEED_BLOCK", block)
        assert run_experiment(spec).to_dict() == whole, block


@pytest.mark.parametrize("protocol, attack", PAIRS)
def test_small_experiments_equal_the_scalar_fold(protocol, attack, monkeypatch):
    """Experiments of 1, 3 and 7 trials, and one of 2 trials forced into
    1-lane chunks, report exactly what their scalar trials fold to."""
    for L, trials in itertools.product((1, 8), (1, 3, 7)):
        spec = ExperimentSpec(protocol=protocol, attack=attack, secret_bits=L, trials=trials, seed=L + trials)
        assert run_experiment(spec).to_dict() == scalar_report(spec).to_dict(), (L, trials)
    spec = ExperimentSpec(protocol=protocol, attack=attack, secret_bits=8, trials=2, seed=6)
    monkeypatch.setattr(batch, "MAX_LANE_ROUNDS", spec.num_rounds())
    assert run_experiment(spec).to_dict() == scalar_report(spec).to_dict()


# -- crafted words -----------------------------------------------------------------------

# u = 0.0 exactly, u = 0.0 from the largest word below 2**11, u = 0.5 - 2**-53
# (|10>'s Psi+ bound, which only `u * total` keeps below the bound), and the
# largest word.
TIES = (0, 2**11 - 1, 0x7FFFFFFFFFFFF800, 2**64 - 1)


@pytest.mark.parametrize("protocol, attack", PAIRS)
def test_crafted_tie_words_give_scalar_reports(protocol, attack, monkeypatch):
    """Each lane's words mix the tie words with random ones; the batched
    engine reads them as raw words, the scalar engine through the tests'
    word replay, and both must agree."""
    rng = np.random.default_rng(PAIRS.index((protocol, attack)))
    for L, mode in ((1, "unequal"), (2, "random")):
        spec = _spec(protocol, attack, L, mode=mode)
        count = 64
        shape = (count, 1024)
        ties = np.array(TIES, dtype=np.uint64)[rng.integers(len(TIES), size=shape)]
        rows = np.where(rng.random(shape) < 0.6, ties, rng.integers(2**64, size=shape, dtype=np.uint64))

        def read(lanes, starts, width):
            return np.array([rows[lane, start : start + width] for lane, start in zip(lanes, starts)])

        monkeypatch.setattr(harness, "trial_rng", lambda seed, t: WordReplay(rows[t]))
        _assert_equal(spec, 0, count, read)


# -- the cursor step ---------------------------------------------------------------------


def _walked_cursors(spec, words, keys):
    """Each lane's word cursor at the start of every round and after the
    last, whether it has a half-word buffered at the start of every round,
    and each side's round of its L-th SIFT (-1 for none), walked a round at
    a time by `_walk_round` from every lane's cursor, with the codes read
    from `random()` of each word and each side's SIFTs counted as they come."""
    attack, improved = ATTACKS[spec.attack], spec.protocol == "improved"
    L, rounds = spec.secret_bits, spec.num_rounds()
    u = (words.reshape(-1) >> np.uint64(11)) * 2.0**-53
    word = np.empty((rounds + 1, len(words)), np.int64)
    buffered = np.empty((rounds, len(words)), bool)
    made = np.zeros((2, len(words)), np.int64)
    last = np.full((2, len(words)), -1)
    p, hb = keys.word, keys.half

    def code(q, detect):
        return u[q] < spec.p_detect if detect else u[q] >= spec.p_ctrl

    def filler(side, sift):
        return sift & (made[side] >= L)

    for r in range(rounds):
        word[r], buffered[r] = p, hb >= 0
        *_, sides, p, hb = batch._walk_round(attack, improved, p, hb, code, filler)
        for side, (sift, *_) in enumerate(sides):
            made[side] += sift
            last[side][sift & (made[side] == L)] = r
    word[rounds] = p
    return word, buffered, last


@pytest.mark.parametrize("protocol", ["jiang", "improved"])
def test_cursor_step_equals_a_walk_of_every_round(protocol):
    """`advance_cursors` gives the cursors that walking every round gives:
    at p_ctrl and p_detect 0, 0.5 and 1, rounds factors 1 and 2 and the
    default, L of 1, 3 and 64, for every attack. Jiang lanes make their L-th
    SIFT at different rounds, or (p_ctrl 1) never; unequal-mode lanes at
    L=1 re-read their rows from further on."""
    fills, rereads = set(), 0
    for attack, L, factor, p_ctrl, p_detect in itertools.product(
        ATTACKS, (1, 3, 64), (1, 2, None), (0.0, 0.5, 1.0), (0.0, 0.5, 1.0)
    ):
        if (L == 64 and factor is None) or (protocol == "jiang" and p_detect != 0.5):
            continue
        settings = {"rounds_factor": factor} if factor else {}
        mode = "unequal" if L == 1 else "random"
        spec = _spec(protocol, attack, L, 2**32 + 1, mode=mode, p_ctrl=p_ctrl, p_detect=p_detect, **settings)
        count = 8 if L == 64 else 64
        calls = []
        words, read = batch.seed_and_read(spec, 0, count)
        keys = batch.draw_keys(spec, words, lambda *args: calls.append(args) or read(*args))
        word, buffered = batch.advance_cursors(spec, words, keys)
        expected_word, expected_buffered, last = _walked_cursors(spec, words, keys)
        assert np.array_equal(word, expected_word), (attack, L, factor, p_ctrl, p_detect)
        assert np.array_equal(buffered, expected_buffered), (attack, L, factor, p_ctrl, p_detect)
        rereads += len(calls)
        if p_ctrl == 1:
            assert (last < 0).all()
        fills.update(last.ravel().tolist())
    assert rereads > 0
    if protocol == "jiang":
        assert len(fills) > 10 and -1 in fills


# -- one experiment path and its bounds ---------------------------------------------------


def _spy_chunks(monkeypatch) -> list[tuple[int, int]]:
    """The (first, count) of every chunk `run_experiment` runs from now on."""
    chunks = []

    def spy(spec, first, count):
        chunks.append((first, count))
        return run_chunk(spec, first, count)

    monkeypatch.setattr(batch, "run_chunk", spy)
    return chunks


def test_experiments_never_run_the_scalar_engine(monkeypatch):
    """Experiments of 1, 7 and 200 trials, and one whose chunks shrink to a
    single lane, run every trial on the batched engine."""

    def refuse(*args):
        raise AssertionError("scalar engine called")

    monkeypatch.setattr(harness, "run_trial", refuse)
    monkeypatch.setattr(harness, "run_protocol", refuse)
    for trials in (1, 7, 200):
        run_experiment(ExperimentSpec(protocol="improved", attack="outside", secret_bits=8, trials=trials))
    spec = ExperimentSpec(protocol="jiang", attack="participant", secret_bits=8, trials=3)
    chunks = _spy_chunks(monkeypatch)
    monkeypatch.setattr(batch, "MAX_LANE_ROUNDS", spec.num_rounds())
    run_experiment(spec)
    assert chunks == [(0, 1), (1, 1), (2, 1)]


def test_long_trials_run_in_smaller_chunks(monkeypatch):
    """Chunks shrink by halves until lanes x rounds fits MAX_LANE_ROUNDS,
    and the report does not change."""
    spec = ExperimentSpec(protocol="improved", attack="outside", secret_bits=8, trials=100, seed=4)
    whole = run_experiment(spec)
    chunks = _spy_chunks(monkeypatch)
    monkeypatch.setattr(batch, "MAX_LANE_ROUNDS", 32 * spec.num_rounds())
    assert run_experiment(spec) == whole
    assert chunks == [(0, 32), (32, 32), (64, 32), (96, 4)]


@pytest.mark.parametrize("protocol", ["jiang", "improved"])
def test_benchmark_shapes_keep_their_chunk_plans(protocol, monkeypatch):
    """4,000 trials at L=1 run in four chunks of up to 1024 lanes; 200 at
    L=8 and 8 at L=64 each run as one chunk."""
    chunks = _spy_chunks(monkeypatch)
    plans = {
        (1, 4000): [(0, 1024), (1024, 1024), (2048, 1024), (3072, 928)],
        (8, 200): [(0, 200)],
        (64, 8): [(0, 8)],
    }
    for (L, trials), plan in plans.items():
        chunks.clear()
        run_experiment(ExperimentSpec(protocol=protocol, secret_bits=L, trials=trials))
        assert chunks == plan, (L, trials)


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

    def spying(limbs):
        assert limbs.shape == (64, 4) and limbs.dtype == np.uint64
        read = reader(limbs)

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


@pytest.mark.parametrize("width", [5, batch.SLICE_WORDS + 3])
@pytest.mark.parametrize("first", [2**32 - 4, 2**32])
def test_reader_gives_numpy_words(first, width, monkeypatch):
    """Each row holds the words of numpy's own PCG64 for its trial, from its
    start on, whether read in one piece or several; right after a lane's
    state is written, numpy's state getter reads that lane's (state, inc)
    and no buffered half-word."""
    pcg64, seed = np.random.PCG64, 2**32 + 5
    seen = []  # numpy's view of the state at each advance and read

    class PCG64(pcg64):  # numpy's state setter checks the class name
        def advance(self, delta):
            seen.append(self.state)
            return super().advance(delta)

        def random_raw(self, size=None, output=True):
            seen.append(self.state)
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "PCG64", PCG64)
    read = batch._pcg64_reader(pcg64_states(seed, first, 4))
    pieces = -(-width // batch.SLICE_WORDS)
    for lanes, starts in (([0, 1, 2, 3], [0, 0, 0, 0]), ([3, 0, 2], [1, 7, 2**40])):
        seen.clear()
        rows = read(np.array(lanes), np.array(starts), width)
        for row, lane, start in zip(rows, lanes, starts):
            ref = pcg64(np.random.SeedSequence([seed, first + lane]))
            assert seen[0] == ref.state and seen[0]["has_uint32"] == 0
            del seen[: pieces + bool(start)]
            assert row.tolist() == ref.advance(start).random_raw(width).tolist()
        assert not seen


def test_an_unknown_state_layout_raises(monkeypatch):
    """A PCG64 whose state setter leaves the words at `state_address`
    unchanged makes the reader raise one line before it reads a word."""
    words = (ctypes.c_uint64 * 4)()
    struct = ctypes.c_void_p(ctypes.addressof(words))  # its first field points at the words
    calls = []

    class Stub:
        def __init__(self, seed):
            self.ctypes = SimpleNamespace(state_address=ctypes.addressof(struct))

        state = property(fset=lambda self, value: None)  # sets nothing

        def advance(self, delta):
            calls.append(delta)

        def random_raw(self, size):
            calls.append(size)
            return np.zeros(size, np.uint64)

    monkeypatch.setattr(np.random, "PCG64", Stub)
    with pytest.raises(RuntimeError, match="PCG64 state layout") as error:
        run_chunk(_spec("jiang", "none", 1), 0, 8)
    assert "\n" not in str(error.value)
    assert not calls


@pytest.mark.parametrize("L, trials", [(1, 40), (8, 12), (64, 4)])
@pytest.mark.parametrize("mode", ["random", "equal", "explicit"])
def test_scalar_trials_read_their_words_once(mode, L, trials, monkeypatch):
    """A lane's row, `batch.trial_words` wide, is read once, so no trial of
    any pair may draw more words than that. The scalar engine draws through
    numpy's own Generator, which keeps the count: the first word left
    unread is the word at that count in the trial's stream."""
    generators, numpy_rng = [], harness.trial_rng

    def trial_rng(seed, trial_index):
        generators.append(numpy_rng(seed, trial_index))
        return generators[-1]

    monkeypatch.setattr(harness, "trial_rng", trial_rng)
    for protocol, attack in PAIRS:
        spec = _spec(protocol, attack, L, mode=mode)
        budget = batch.trial_words(spec)
        for t in range(trials):
            run_trial(spec, t)
            stream = np.random.PCG64(np.random.SeedSequence([spec.seed, t])).random_raw(budget + 1)
            unread = generators.pop().bit_generator.random_raw()
            assert unread in stream, (protocol, attack, t)


def _traced_peak(spec, lanes: int) -> int:
    """The traced peak of a chunk of `lanes` lanes, after a warm-up chunk."""
    run_chunk(spec, 0, min(lanes, 16))
    tracemalloc.start()
    try:
        run_chunk(spec, 0, lanes)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_chunk_stays_within_its_stated_memory():
    """A batched chunk's traced peak, for the most word-hungry pair of each
    protocol, stays within the bytes per lane-round that `MAX_LANE_ROUNDS`
    is sized by, a full-width chunk's at L=1 within the peak stated for
    `SEED_BLOCK`, and a 1-lane chunk's within the bytes per round stated
    for it."""
    source = inspect.getsource(batch)
    stated = re.search(r"near (\d+) bytes per lane-round", source)
    transition_table()
    widest = re.search(r"full-width chunk at L=1 peaks near ([\d,]+) KiB", source)
    assert batch.SEED_BLOCK <= batch.SLICE_CELLS
    peak = _traced_peak(_spec("improved", "measure-resend", 1), batch.SEED_BLOCK)
    assert peak <= int(widest.group(1).replace(",", "")) * 1024, peak
    for protocol, L, lanes in (("improved", 64, 256), ("improved", 128, 128), ("jiang", 64, 256)):
        spec = _spec(protocol, "measure-resend", L)
        assert lanes * spec.num_rounds() <= batch.MAX_LANE_ROUNDS
        peak = _traced_peak(spec, lanes)
        assert peak <= int(stated.group(1)) * lanes * spec.num_rounds(), (protocol, L, peak)
    alone = re.search(r"1-lane chunk takes near (\d+) bytes per round", source)
    spec = _spec("improved", "measure-resend", 1024)
    peak = _traced_peak(spec, 1)
    assert peak <= int(alone.group(1)) * spec.num_rounds(), peak


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
