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
import threading
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


def _bell_memo(state):
    """The memo of TP's Bell measurement of a register, of its first and
    last qubit: (total, cumulative weights, post-states)."""
    return state.bell[(0, state.num_qubits - 1)]


def test_table_is_closed_and_within_its_bound():
    table = transition_table()
    size = len(table.states)
    stated = re.search(r"closure holds (\d+) states", inspect.getsource(batch)).group(1)
    assert size == int(stated) <= batch.MAX_TABLE_STATES
    qubits = [state.num_qubits for state in table.states]
    for column in (table.z_post, table.bell_register):
        assert column.max() < size and column.min() >= -1
    # Every register of up to 2 qubits is Z-measured at every position, and
    # one of 3 qubits at none; a position without a measurement has no
    # post-state and a bound of 0.
    assert table.z_k.shape == (2, size) and len(table.z_post) == 4 * size
    for state, pos in itertools.product(range(size), range(2)):
        posts = table.z_post[4 * state + 2 * pos : 4 * state + 2 * pos + 2]
        if pos < qubits[state] <= 2:
            assert (posts >= 0).any(), (state, pos)
            # Posts of a measurement keep their register's size.
            assert all(post < 0 or qubits[post] == qubits[state] for post in posts)
        else:
            assert (posts == -1).all() and table.z_k[pos, state] == 0, (state, pos)
    # The register TP measures: the pair's own, or the pair merged with the
    # forgeries returned in its place, Alice's qubit first, as the
    # simulator's merge memo holds it. TP's Bell bounds are present exactly
    # with a register, from the edges -inf and +inf at either end.
    basis = table.states[:2]
    bounds = table.bell_k.reshape(size, 3, 3, 5)
    for pair, a, b in itertools.product(range(size), (-1, 0, 1), (-1, 0, 1)):
        register = table.bell_register[pair, 1 + a, 1 + b]
        if qubits[pair] != 2:
            assert register == -1
            assert not bounds[pair, 1 + a, 1 + b].any()
            continue
        if a < 0 and b < 0:
            assert register == pair
        else:
            first = table.states[pair] if a < 0 else basis[a]
            second = table.states[pair] if b < 0 else basis[b]
            merged = table.states[register]
            assert merged.key == first.kron[second.key].key, (pair, a, b)
            assert np.array_equal(merged.amplitudes, np.kron(first.amplitudes, second.amplitudes))
            assert qubits[register] == 2 + (a < 0) + (b < 0)
        assert bounds[pair, 1 + a, 1 + b, [0, 4]].tolist() == [0, 2**53]
    # Ids 0 and 1 are |0> and |1>, 2 to 5 the Bell states in BellKind order.
    prepared = [qsim._Z_BASIS[0], qsim._Z_BASIS[1], *qsim._BELL_BASIS]
    for state, amplitudes in zip(table.states, prepared):
        assert np.array_equal(state.amplitudes, amplitudes)


def test_table_entries_equal_the_scalar_engines_memos(monkeypatch):
    """A 12-pair scalar run, on an empty intern table, memoizes the
    transitions it takes; each is the table's: a Z measurement's bound is
    `_least_k` of its p1 and its post-states are the table's, a Bell
    measurement's bounds are `_least_draws` of its total and cumulative
    weights, and each merge is the register the table gives TP. Every Bell
    measurement it memoizes is TP's, of a register's first and last qubit.
    Only TP's Bell post-states lie outside the table, and the run measures
    and merges none of them."""
    table = transition_table()
    monkeypatch.setattr(qsim, "_STATES", {})
    monkeypatch.setattr(qsim, "_PREPARED", [None] * 6)
    for (protocol, attack), L in itertools.product(PAIRS, (1, 8)):
        for t in range(12):
            run_trial(_spec(protocol, attack, L), t)
    ids = {state.key: i for i, state in enumerate(table.states)}
    pairs = [i for i, state in enumerate(table.states) if state.num_qubits == 2]
    entries = table.bell_register.reshape(-1)

    def id_of(state):
        return -1 if state is None else ids[state.key]

    seen = outside = 0
    for state in qsim._STATES.values():
        if state.key not in ids:
            assert not (state.z or state.bell or state.kron)
            outside += 1
            continue
        i = ids[state.key]
        for pos, (p1, posts) in state.z.items():
            assert table.z_k[pos, i] == batch._least_k(p1)
            assert table.z_post[4 * i + 2 * pos : 4 * i + 2 * pos + 2].tolist() == [
                id_of(p) for p in posts
            ]
            seen += 1
        for (a, b), (total, cumulative, _) in state.bell.items():
            assert (a, b) == (0, state.num_qubits - 1)
            least = batch._least_draws(np.array([-np.inf, *cumulative[:3], np.inf]), total)
            for entry in np.flatnonzero(entries == i):
                assert table.bell_k[5 * entry : 5 * entry + 5].tolist() == least.tolist()
            seen += 1
        for key, merged in state.kron.items():
            # What each side returns: its half of the pair, or a forgery.
            other = ids[key]
            if state.num_qubits == 2:
                cells = [(i, -1, other)]
            elif table.states[other].num_qubits == 2:
                cells = [(other, i, -1)]
            else:
                cells = [(pair, i, other) for pair in pairs]
            for pair, a, b in cells:
                assert table.bell_register[pair, 1 + a, 1 + b] == ids[merged.key]
            seen += 1
    assert len(qsim._STATES) >= 30 and seen >= 45 and outside > 0


def _first_kind(draw, cumulative) -> int:
    """`Simulator.measure_bell`'s rule: the first kind whose cumulative
    weight exceeds the draw, else the last."""
    for k, bound in enumerate(cumulative):
        if draw < bound:
            return k
    return len(cumulative) - 1


_LAST = 2**53 - 1


def _near(*bounds):
    """0, the last draw, and each bound with one k either side of it."""
    return sorted({0, _LAST} | {min(max(b + d, 0), _LAST) for b in bounds for d in (-1, 0, 1)})


def _bell_cases(table):
    """For every register entry TP Bell-measures, each kind and each k near
    any of the entry's bounds: whether k lies in the kind's `bell_k` range,
    the draw fl(k * 2**-53 * total) and the register's memo weights."""
    for entry, register in enumerate(table.bell_register.reshape(-1).tolist()):
        if register < 0:
            continue
        total, cumulative, _ = _bell_memo(table.states[register])
        bounds = [int(k) for k in table.bell_k[5 * entry : 5 * entry + 5]]
        for k, kind in itertools.product(_near(*bounds), range(4)):
            inside = bounds[kind] <= k < bounds[kind + 1]
            yield entry, kind, k, inside, k * 2.0**-53 * total, cumulative


def test_bell_edges_give_measure_bells_kind():
    """For every register entry TP Bell-measures and each kind, at 0, the
    last draw, each bound of the entry and one k either side, the draw
    k = w >> 11 lies in the kind's `bell_k` range exactly when
    `measure_bell`'s loop, on the draw fl(k * 2**-53 * total) and the
    register's memo, picks that kind. The id columns are int16, and so is
    every index into the registers and their bounds."""
    table = transition_table()
    assert table.z_post.dtype == table.bell_register.dtype == np.int16
    assert table.bell_register.size == 9 * len(table.states)
    assert len(table.bell_k) == 5 * table.bell_register.size <= np.iinfo(np.int16).max
    picked = 0
    for entry, kind, k, inside, draw, cumulative in _bell_cases(table):
        assert inside == (_first_kind(draw, cumulative) == kind), (entry, kind, k)
        picked += 1
    assert picked >= 1000


def test_bounds_give_the_float_rules_exactly():
    """Each integer bound gives what the float rule it stands for gives, for
    the draws k = w >> 11 of `random()`, u = k * 2**-53: at 0, the bound and
    one draw either side of it, and the last draw. For every Z slot of the
    table, k < z_k exactly when u < p1, the memo's; for every register
    entry TP Bell-measures and each kind, at each bound of the entry and
    one k either side, k lies in the kind's `bell_k` range exactly when the
    draw fl(u * total) lies between its edges, the memo's cumulative
    weights with -inf and +inf at either end. The table's p1s are all 0,
    0.5 or 1, where a floor would give the same bound as `_least_k`'s
    ceiling, so the Z rule is checked on non-dyadic p1s too, and
    `_least_draws` on totals and edges other than the table's."""
    table = transition_table()
    size = len(table.states)
    assert table.z_k.dtype == table.bell_k.dtype == np.uint64
    assert table.z_k.shape == (2, size)
    checked = 0
    for slot in np.flatnonzero((table.z_post.reshape(-1, 2) >= 0).any(axis=1)):
        i, pos = divmod(int(slot), 2)
        p1, bound = table.states[i].z[pos][0], int(table.z_k[pos, i])
        assert bound == batch._least_k(p1), (i, pos)
        for k in _near(bound):
            assert (k < bound) == (k * 2.0**-53 < p1), (i, pos, k)
            checked += 1
    for p1 in (1 / 3, 0.1, np.nextafter(0.5, 1), 2.0**-60, 1 - 2.0**-53):
        bound = batch._least_k(p1)
        for k in (bound - 1, bound, bound + 1):
            assert (k < bound) == (k * 2.0**-53 < p1), (p1, k)
    for entry, kind, k, inside, draw, cumulative in _bell_cases(table):
        edges = [-np.inf, *cumulative[:3], np.inf]
        assert inside == (edges[kind] <= draw < edges[kind + 1]), (entry, kind, k)
        checked += 1
    # `_least_draws` gives each least k whose draw reaches its edge.
    edges = np.array([-np.inf, 1 / 3, 0.1, np.nextafter(0.5, 1), 1 - 2.0**-53, np.inf])
    for total in (1.0, 1 - 2.0**-53, 1 / 3, np.nextafter(1.0, 2)):
        for edge, bound in zip(edges, batch._least_draws(edges, total).tolist()):
            for k in _near(bound):
                assert (k * 2.0**-53 * total >= edge) == (k >= bound), (total, edge, k)
                checked += 1
    assert checked >= 1600


def test_z_of_a_basis_state_is_its_bit_whatever_the_draw():
    """Ids 0 and 1 hold p1 exactly 0.0 and 1.0 at position 0, so bounds 0
    and 2**53, and each keeps its own state for its own outcome, so no draw
    k = w >> 11 changes the Z measurement of a forgery or of Alice's
    outgoing qubit: the batched engine reads no word for either. So too
    TP's Z of a SIFT qubit returned untouched is the bit sent, and TP's
    pass counts no flip for it."""
    table = transition_table()
    assert [table.states[bit].z[0][0] for bit in (0, 1)] == [0.0, 1.0]
    assert table.z_k[0, [0, 1]].tolist() == [0, 2**53]
    assert table.z_post[[0, 5]].tolist() == [0, 1]  # [(id * 2 + 0) * 2 + id]
    k = np.array([0, 1 << 11, 1 << 63, 2**64 - 1], np.uint64) >> 11  # u = 0, 2**-53, 0.5, 1 - 2**-53
    for bit in (0, 1):
        outcome, post = batch._measure_z(table, np.full(len(k), bit, np.int16), 0, k)
        assert outcome.tolist() == [bool(bit)] * len(k)
        assert post.tolist() == [bit] * len(k)


def test_tp_pass_rejects_a_register_outside_the_table(monkeypatch):
    """A Bell check whose register entry the table does not hold raises
    before any bound is read, not a check against another entry's bounds."""
    table = transition_table()
    unknown = table._replace(bell_register=np.full_like(table.bell_register, -1))
    monkeypatch.setattr(batch, "transition_table", lambda: unknown)
    with pytest.raises(ValueError, match="merges registers outside the table"):
        run_chunk(_spec("improved", "none", 1), 0, 4)


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


@pytest.mark.parametrize("cells, lanes", [(1, 3), (37, 5)])
def test_slices_of_any_width_equal_scalar_reports(cells, lanes, monkeypatch):
    """Slices of one round, and of an odd width that rounds never divide,
    carry each lane's buffered half-word, SIFT counts and TP's word offsets
    from slice to slice: every pair at L=8, and unequal secrets at L=1."""
    monkeypatch.setattr(batch, "SLICE_CELLS", cells)
    for protocol, attack in PAIRS:
        _assert_equal(_spec(protocol, attack, 8, 11), 0, lanes)
        _assert_equal(_spec(protocol, attack, 1, 12, mode="unequal"), 0, 8 * lanes)


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
# largest word; then u = 0.25, 0.5 and 0.75 and one word-ulp (2**11, a u of
# 2**-53) either side of each, where p1s and edges of 0.5 +- 2**-53 decide.
TIES = (0, 2**11 - 1, 0x7FFFFFFFFFFFF800, 2**64 - 1) + tuple(
    tie + ulp for tie in (1 << 62, 1 << 63, 3 << 62) for ulp in (-(1 << 11), 0, 1 << 11)
    if tie + ulp != 0x7FFFFFFFFFFFF800
)


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
    default, L of 1, 3 and 64, for every attack, in a chunk narrow enough
    to walk lane by lane and in one that takes the numpy walk. Jiang lanes
    make their L-th SIFT at different rounds, or (p_ctrl 1) never;
    unequal-mode lanes at L=1 re-read their rows from further on."""
    narrow, wide = batch.NARROW_LANES - 1, 64
    assert 0 < narrow < batch.NARROW_LANES <= wide
    fills, rereads = set(), 0
    for attack, L, factor, p_ctrl, p_detect, count in itertools.product(
        ATTACKS, (1, 3, 64), (1, 2, None), (0.0, 0.5, 1.0), (0.0, 0.5, 1.0), (narrow, wide)
    ):
        if (L == 64 and factor is None) or (protocol == "jiang" and p_detect != 0.5):
            continue
        settings = {"rounds_factor": factor} if factor else {}
        mode = "unequal" if L == 1 else "random"
        spec = _spec(protocol, attack, L, 2**32 + 1, mode=mode, p_ctrl=p_ctrl, p_detect=p_detect, **settings)
        calls = []
        words, read = batch.seed_and_read(spec, 0, count)
        keys = batch.draw_keys(spec, words, lambda *args: calls.append(args) or read(*args))
        word, buffered = batch.advance_cursors(spec, words, keys)
        expected_word, expected_buffered, last = _walked_cursors(spec, words, keys)
        assert np.array_equal(word, expected_word), (attack, L, factor, p_ctrl, p_detect, count)
        assert np.array_equal(buffered, expected_buffered), (attack, L, factor, p_ctrl, p_detect, count)
        rereads += len(calls)
        if p_ctrl == 1:
            assert (last < 0).all()
        fills.update(last.ravel().tolist())
    assert rereads > 0
    if protocol == "jiang":
        assert len(fills) > 10 and -1 in fills


# -- the round shapes --------------------------------------------------------------------


@pytest.mark.parametrize("protocol, attack", PAIRS)
def test_round_shapes_equal_a_walk_of_every_window(protocol, attack):
    """`_walk_round` from a cursor 5 words in, over every window of codes
    of the 8 words from the cursor on, buffered bit and (jiang) filler
    bits, puts every draw where its key's row of `_round_shapes` says, and
    draws at most its `halves`, as some window does. The walk reaches
    exactly 18 keys; a key whose next bit comes without its choice code has
    the row of that key without the next bit."""
    improved = protocol == "improved"
    shapes = batch._round_shapes(attack, improved)
    start, per_word = 5, 2 if improved else 1
    first_filler = 1 + 8 * per_word
    cells = np.arange(1 << first_filler + (0 if improved else 2))
    buffered = (cells & 1).astype(bool)
    read = []

    def code(q, detect):  # bit 0 is the buffered bit; then each word's codes, choice code first
        read.append(q - start)
        return (cells >> 1 + (q - start) * per_word + detect & 1).astype(bool)

    def filler(side, sift):
        return sift & (cells >> first_filler + side & 1).astype(bool)

    _, legs, sides, p, hb = batch._walk_round(
        ATTACKS[attack], improved, np.full(len(cells), start), np.where(buffered, 2 * start - 1, -1), code, filler
    )
    key = buffered.astype(np.intp)
    for side, (sift, detect, _, _, drawn) in enumerate(sides):
        key |= sift << 1 + 2 * side
        key |= (detect if improved else drawn) << 2 + 2 * side
    assert len(np.unique(key)) == 18
    assert np.array_equal(read[0], shapes.alice[key & 1])
    assert np.array_equal(read[len(read) // 2], shapes.bob[key & 7])
    for leg, index, offset in zip(batch._LEGS, legs, shapes.legs):
        assert (index is None) == (offset is None)
        if index is not None:
            assert np.array_equal(index, (2 if leg in ATTACKS[attack].forged else 1) * start + offset[key])
    for (_, _, measured, bit, drawn), (at, half, drawn_at) in zip(sides, shapes.sides):
        assert (measured is None) == (at is None)
        if measured is not None:
            assert np.array_equal(measured, start + at[key])
        assert np.array_equal(bit, 2 * start + half[key])
        assert np.array_equal(drawn, drawn_at[key])
    assert np.array_equal(hb, np.where(shapes.left[key] < 0, -1, 2 * start + shapes.left[key]))
    assert np.array_equal(2 * (p - start) + (hb >= 0) - buffered, shapes.step[key])
    assert (2 * (p - start) - (hb >= 0) + buffered).max() == shapes.halves

    def row(k):
        return [
            None if column is None else int(column[k])
            for column in (*shapes.legs, *itertools.chain(*shapes.sides), shapes.left, shapes.step)
        ]

    for k in range(32):
        for side in (0, 1):
            if k >> 2 + 2 * side & 1 and not k >> 1 + 2 * side & 1:
                assert k not in key and row(k) == row(k & ~(4 << 2 * side)), k


def test_play_never_walks_a_round(monkeypatch):
    """Once the tables are built, every pair's chunks at L=1 and 8 equal
    the scalar reports with `_walk_round` refusing to run."""
    for protocol, attack in PAIRS:
        batch._round_steps(attack, protocol == "improved")

    def refuse(*args):
        raise AssertionError("a round was walked")

    monkeypatch.setattr(batch, "_walk_round", refuse)
    for (protocol, attack), L in itertools.product(PAIRS, (1, 8)):
        _assert_equal(_spec(protocol, attack, L, 13), 0, 24)


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
        patch.setattr(batch, "_play_words", lambda spec: 2 * spec.num_rounds())
        with pytest.raises((AssertionError, IndexError)):
            run_chunk(_spec("improved", "measure-resend", 8), 0, 40)

    words = batch.trial_words
    monkeypatch.setattr(batch, "trial_words", lambda spec: words(spec) - 2 * spec.num_rounds())
    for attack in ("none", "participant"):
        with pytest.raises(AssertionError, match="past its row"):
            run_chunk(_spec("jiang", attack, 8), 0, 40)


@pytest.mark.parametrize("count", [40, 4])
def test_the_cursor_step_checks_the_play_budget(count, monkeypatch):
    """With a play budget of 4 words a round, a lane reading all-ones words
    (a calculate SIFT of 6.5 words every round) overruns it into the next
    lane's row, while the last lane reads zeros (double CTRL, 2.5 words a
    round) and stays within the words, so the cursor step's own check
    raises, for the wide walk and for the narrow one."""
    monkeypatch.setattr(batch, "_play_words", lambda spec: 4 * spec.num_rounds())

    def read(lanes, starts, width):
        rows = np.full((len(lanes), width), 2**64 - 1, dtype=np.uint64)
        rows[np.asarray(lanes) == count - 1] = 0
        return rows

    with pytest.raises(AssertionError, match="past its row"):
        run_chunk(_spec("improved", "none", 8), 0, count, read)


@pytest.mark.parametrize("mode",["random", "equal", "explicit", "unequal"])
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


def test_threads_read_their_own_pcg64():
    """Threads that run chunks of different pairs at once, again and again,
    get the lanes of a sequential run: each writes its lanes' limbs into
    the state words of a PCG64 of its own, which it builds on its first
    chunk only. A shared one would hand one lane's words to another."""
    specs = [
        _spec("improved", "measure-resend", 8, mode="unequal"),
        _spec("jiang", "participant", 8, 2**32 + 5),
        _spec("improved", "outside", 1, 17),
        _spec("jiang", "none", 64, mode="equal"),
    ]
    expected = [run_chunk(spec, 0, 32) for spec in specs]
    got, sources = [[] for _ in specs], [[] for _ in specs]

    def work(k):
        for _ in range(8):
            got[k].append(run_chunk(specs[k], 0, 32))
            sources[k].append(batch._THREAD.pcg64[1])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(specs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, runs, kept in zip(expected, got, sources):
        assert len(runs) == 8
        for lanes in runs:
            assert all(np.array_equal(a, b) for a, b in zip(lanes, want))
        assert all(source is kept[0] for source in kept)
    assert len({id(kept[0]) for kept in sources}) == len(specs)


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
    stated = int(re.search(r"near (\d+) bytes per lane-round", source).group(1))
    transition_table()
    widest = re.search(r"full-width chunk at L=1 peaks near ([\d,]+) KiB", source)
    widest = int(widest.group(1).replace(",", ""))
    assert batch.SEED_BLOCK <= batch.SLICE_CELLS
    peak = _traced_peak(_spec("improved", "measure-resend", 1), batch.SEED_BLOCK)
    print(f"full-width chunk at L=1: {peak / 1024:,.0f} KiB traced, {widest:,} stated")
    assert peak <= widest * 1024, peak
    for protocol, L, lanes in (("improved", 64, 256), ("improved", 128, 128), ("jiang", 64, 256)):
        spec = _spec(protocol, "measure-resend", L)
        assert lanes * spec.num_rounds() <= batch.MAX_LANE_ROUNDS
        peak = _traced_peak(spec, lanes)
        cells = lanes * spec.num_rounds()
        print(f"{protocol} L={L}, {lanes} lanes: {peak / cells:.1f} bytes per lane-round, {stated} stated")
        assert peak <= stated * cells, (protocol, L, peak)
    alone = int(re.search(r"1-lane chunk takes near (\d+) bytes per round", source).group(1))
    spec = _spec("improved", "measure-resend", 1024)
    peak = _traced_peak(spec, 1)
    print(f"1-lane chunk at L=1,024: {peak / spec.num_rounds():.1f} bytes per round, {alone} stated")
    assert peak <= alone * spec.num_rounds(), peak


def test_a_chunks_lanes_are_narrow():
    """A lane's report fields are int8 codes, bools and int32 counts, 27
    bytes a lane, so a full-width chunk's `Lanes` stay far inside the 64 KiB
    that `test_experiment_memory_does_not_grow_with_trials` allows an
    experiment to grow by."""
    lanes = run_chunk(_spec("jiang", "participant", 1), 0, batch.SEED_BLOCK)
    assert sum(field.nbytes for field in lanes) == 27 * batch.SEED_BLOCK


def test_word_budget_is_a_worst_case():
    """The round walk's most half-words a round equal a hand count of the
    round's worst case (a `random()` is 2, an `integers` draw 1): the kind,
    a forgery bit per forged leg, a measurement per measured leg, and each
    side's choice and SIFT (improved: the detect draw, then a measurement;
    jiang: a filler bit). The improved measure-resend round plays with 8.5
    words at most, the most of any pair."""
    halves = {}
    for protocol, name in PAIRS:
        attack, improved = ATTACKS[name], protocol == "improved"
        side = 6 if improved else 3
        halves[protocol, name] = batch._round_shapes(name, improved).halves
        assert halves[protocol, name] == 1 + len(attack.forged) + 2 * len(attack.measured) + 2 * side, name
    assert max(halves.values()) == halves["improved", "measure-resend"] == 17
