"""Batched trial engine: a chunk of an experiment's trials run as numpy
arrays, draw for draw the stream `harness.run_trial` makes.

Every operation of the protocols is Clifford, and no register they build
holds more than three qubits, so a round's quantum state is one of a few
dozen vectors. `transition_table` numbers them once, lazily, and stores
each transition as numpy arrays indexed by state id: a Z measurement's
p1 and post-states per position, a Bell measurement's total, cumulative
weights and post-states per ordered pair, and the state of two registers
merged. Every float is the simulator's own memo entry (`qsim._z_memo`,
`qsim._bell_memo`), so the engine's `u < p1` and `u * total < bound`
compare the same floats as `Simulator.measure_z` and `measure_bell`.

`run_chunk` runs trials `first` to `first + count - 1`, one lane each. Each
lane reads its trial's raw PCG64 words from one row of a (lanes x words)
matrix, with a word cursor and a buffered half-word of its own, as `Draws`
serves them. The row holds a proven worst case of all the words a trial
reads (`trial_words`, which also sizes a scalar trial's first read), so
each lane's row is read once; phase 3 reads on from where the lane's play
ended, and a lane that would read past its row raises. The phases:

    1. key and secret bits, one block for every lane, then unequal-mode
       redraws of y for the lanes that need them;
    2. play, round by round, vectorized over lanes: the Bell kind, the
       forward legs as the `Attack` columns say (a forgery bit, or a Z
       measurement in transit), then each participant's choice and SIFT;
    3. an insider's measurements of Alice's held returns, then TP's pass.
       Both draw only `random()`, one word per measurement, so each round's
       word offset is a cumulative sum over the played choices, and both
       run over the whole (lanes x rounds) array at once;
    4. the checks and the comparison values, per lane.

Each draw the scalar engine makes is made at the same stream position, also
when its result is unused, such as a Z measurement of an eigenstate. No
`Simulator`, channel strategy, `RoundRecord` or `Transcript` is built; the
per-lane report fields come back as `Lanes` arrays.
"""
from __future__ import annotations

from functools import cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

from . import qsim
from .adversary import ATTACKS
from .draws import pcg64_states
from .protocol import AbortReason, Leg

_UNIT = 2.0**-53
# Columns per state: Z at positions 0-3, Bell at ordered pairs 4 * a + b.
_Z_SLOTS, _BELL_SLOTS = 4, 16
# The closure holds 82 states; the bound stops one that would not end.
MAX_TABLE_STATES = 128

# Lanes.reason codes: completed, then the abort reasons in declaration order.
REASONS = (None, *AbortReason)


class Table(NamedTuple):
    """The protocols' register states and their transitions, by state id.

    Ids 0 and 1 are |0> and |1>, so a basis bit is its state's id, and ids
    2 to 5 are the Bell states in BellKind order. Columns that the closure
    does not compute hold -1 (ids) or NaN.
    """

    states: tuple  # the interned qsim state of each id
    qubits: np.ndarray  # register size
    z_p1: np.ndarray  # [id * 4 + pos]
    z_post: np.ndarray  # [(id * 4 + pos) * 2 + outcome]
    bell_total: np.ndarray  # [id * 16 + 4 * a + b]
    bell_cum: np.ndarray  # [id * 16 + 4 * a + b, kind]
    bell_post: np.ndarray  # [id * 16 + 4 * a + b, kind]
    kron: np.ndarray  # [id_a, id_b]: the merged register, a's qubits first


@cache
def transition_table() -> Table:
    """The closure of the 2 basis states and the 4 Bell states under Z
    measurement at each position and Bell measurement of each ordered pair
    (of registers of up to 2 qubits) and under merging two registers into
    one of 3 qubits at most; a merged 3-qubit register gets the Bell
    measurements of the pairs that straddle the merge, TP's one measurement
    of it, whose post-states end the closure. Built on first use."""
    states, ids = [], {}

    def number(state):
        if state is None:
            return -1
        if state.key not in ids:
            assert len(states) < MAX_TABLE_STATES, "transition table outgrew its bound"
            ids[state.key] = len(states)
            states.append(state)
        return ids[state.key]

    z, bell, kron = {}, {}, {}

    def measure_bell(state, a, b):
        total, cumulative, posts = state.bell.get((a, b)) or qsim._bell_memo(state, a, b)
        bell[number(state) * _BELL_SLOTS + 4 * a + b] = (total, cumulative, list(map(number, posts)))

    prepared = [qsim._intern(1, row) for row in qsim._Z_BASIS]
    prepared += [qsim._intern(2, row) for row in qsim._BELL_BASIS]
    for state in prepared:  # ids 0 and 1: |0> and |1>; 2 to 5: the Bell states
        number(state)
    done = 0
    while done < len(states):  # registers of up to 2 qubits
        state = states[done]
        done += 1
        for pos in range(state.num_qubits):
            p1, posts = state.z.get(pos) or qsim._z_memo(state, pos)
            z[number(state) * _Z_SLOTS + pos] = (p1, list(map(number, posts)))
        for a, b in permutations(range(state.num_qubits), 2):
            measure_bell(state, a, b)
        if state.num_qubits == 1:
            for other in states[:done]:
                for first, second in ((state, other), (other, state)):
                    if first.num_qubits == 1 and second.num_qubits == 1:
                        merged = first.kron.get(second.key) or qsim._kron(first, second)
                        kron[number(first), number(second)] = number(merged)
    small = states[:done]
    for first in small:
        for second in small:
            if first.num_qubits + second.num_qubits == 3:
                merged = first.kron.get(second.key) or qsim._kron(first, second)
                kron[number(first), number(second)] = number(merged)
                for a in range(first.num_qubits):
                    for b in range(second.num_qubits):
                        measure_bell(merged, a, first.num_qubits + b)

    size = len(states)
    table = Table(
        tuple(states),
        np.array([s.num_qubits for s in states]),
        np.full(size * _Z_SLOTS, np.nan),
        np.full(size * _Z_SLOTS * 2, -1),
        np.full(size * _BELL_SLOTS, np.nan),
        np.full((size * _BELL_SLOTS, 4), np.nan),
        np.full((size * _BELL_SLOTS, 4), -1),
        np.full((size, size), -1),
    )
    for slot, (p1, posts) in z.items():
        table.z_p1[slot] = p1
        table.z_post[2 * slot : 2 * slot + 2] = posts
    for slot, (total, cumulative, posts) in bell.items():
        table.bell_total[slot] = total
        table.bell_cum[slot] = cumulative
        table.bell_post[slot] = posts
    for pair, merged in kron.items():
        table.kron[pair] = merged
    for column in table[1:]:
        column.flags.writeable = False
    return table


class Lanes(NamedTuple):
    """Each lane's `TrialReport` fields, as arrays over the lanes."""

    reason: np.ndarray  # index into REASONS
    first: np.ndarray  # first differing ordinal of a completed lane, 0 for none
    correct: np.ndarray  # verdict_correct of a completed lane
    n: np.ndarray  # Alice's traps
    m: np.ndarray  # Bob's traps
    case1_rounds: np.ndarray
    case1_errors: np.ndarray
    trap_mismatches: np.ndarray
    recovered: np.ndarray  # adversary_recovered_secret_correct: -1 None, 0, 1

    @property
    def detected(self) -> np.ndarray:
        """Lanes that a security check (Bell or trap) aborted."""
        return (self.reason == 1) | (self.reason == 2)

    @classmethod
    def of(cls, reports) -> "Lanes":
        """The fields of scalar `TrialReport`s."""
        rows = [
            (
                REASONS.index(r.outcome.abort_reason),
                r.outcome.first_differing_ordinal or 0,
                bool(r.verdict_correct),
                r.n,
                r.m,
                r.case1_rounds,
                r.case1_errors,
                r.trap_mismatches,
                -1 if r.adversary_recovered_secret_correct is None
                else int(r.adversary_recovered_secret_correct),
            )
            for r in reports
        ]
        return cls(*map(np.array, zip(*rows)))


def _half_words_per_round(attack, improved: bool) -> int:
    """A worst case of one round's play draws, in half-words (a `random()`
    is 2, an `integers` draw 1): the kind, a forgery bit per forged leg, a
    measurement per measured leg, and each side's choice and SIFT (improved:
    the detect draw, then a measurement or a trap bit; jiang: a filler bit).
    h half-word draws read at most ceil(h / 2) words, so a round's play
    reads at most half this many words, however its draws interleave."""
    side = 6 if improved else 3
    return 1 + len(attack.forged) + 2 * len(attack.measured) + 2 * side


def trial_words(spec) -> int:
    """A proven worst case of the raw words one trial reads, unequal-mode
    redraws of y aside: its key and secret bits, a half-word each; its play
    (`_half_words_per_round`); TP's pass, one word per case-1 round and per
    SIFT qubit, so at most 2 a round; and an insider's measurement of each
    of Alice's held returns, at most 1 a round. Both engines size a trial's
    first read with it."""
    attack = ATTACKS[spec.attack]
    rounds = spec.num_rounds()
    play = -(-rounds * _half_words_per_round(attack, spec.protocol == "improved") // 2)
    later = (2 + (attack.insider and attack.swap_back)) * rounds
    return (spec.drawn_blocks() * spec.secret_bits + 1) // 2 + play + later


def _pcg64_reader(states):
    """`read(lanes, starts, width)`: `width` raw words of each lane's PCG64
    (state, inc), from word `start` of its stream on, as (lanes x width)."""
    source = np.random.PCG64(0)

    def read(lanes, starts, width: int) -> np.ndarray:
        rows = np.empty((len(lanes), width), dtype="<u8")
        for row, lane, start in zip(rows, lanes, starts):
            state, inc = states[lane]
            source.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            if start:
                source.advance(int(start))
            row[:] = source.random_raw(width)
        return rows

    return read


def run_chunk(spec, first: int, count: int, read=None) -> Lanes:
    """Trials `first` to `first + count - 1` of `spec`'s experiment, each
    giving the report fields `harness.run_trial` gives. `read(lanes, starts,
    width)` supplies raw words as `_pcg64_reader` does; by default, those
    of the trials' own streams. It is called once for every lane with
    `starts` 0, and again, from further on, only for unequal-mode lanes
    whose redraws of y outgrow their rows."""
    if read is None:
        read = _pcg64_reader(pcg64_states(spec.seed, first, count))
    table = transition_table()
    attack = ATTACKS[spec.attack]
    improved = spec.protocol == "improved"
    L, rounds = spec.secret_bits, spec.num_rounds()
    p_ctrl, p_detect = spec.p_ctrl, spec.p_detect

    # -- 1. key and secret bits: one half-word per bit ----------------------
    drawn = spec.drawn_blocks() * L
    limit = trial_words(spec)  # words a row holds for its lane
    bits_end = (drawn + 1) // 2  # redraws must end here too: `limit` counts none
    width = limit + 3  # the last columns only pad a gather
    words = read(range(count), np.zeros(count, np.int64), width)
    halves = words.view("<u4")  # a word's low half first
    bits = (halves[:, :drawn] >> 31).astype(np.uint8)
    k, ra, rb = bits[:, :L], bits[:, L : 2 * L], bits[:, 2 * L : 3 * L]
    explicit = spec.explicit_secrets()
    if explicit is not None:
        x, y = (np.broadcast_to(np.array(s, np.uint8), (count, L)) for s in explicit)
    elif spec.secrets == "equal":
        x = y = bits[:, 3 * L :]
    else:
        x, y = bits[:, 3 * L : 4 * L], bits[:, 4 * L :].copy()
    consumed = np.full(count, drawn)  # half-words each lane has drawn
    base = np.zeros(count, np.int64)  # each row's first word in its stream
    redraw = np.flatnonzero((x == y).all(1)) if spec.secrets == "unequal" else ()
    row_base = 0  # the lanes still redrawing have drawn alike, so share a row base
    while len(redraw):
        if (drawn + L + 1) // 2 - row_base > bits_end:
            row_base = drawn // 2
            words[redraw] = read(redraw, np.full(len(redraw), row_base), width)
            base[redraw] = row_base
        column = drawn - 2 * row_base
        y[redraw] = halves[redraw, column : column + L] >> 31
        drawn += L
        consumed[redraw] = drawn
        redraw = redraw[(x[redraw] == y[redraw]).all(1)]

    # -- 2. play -------------------------------------------------------------
    flat_words, flat_halves = words.reshape(-1), halves.reshape(-1)
    row_start = np.arange(count) * width
    pos = row_start + (consumed + 1) // 2 - base  # each lane's next word
    # the buffered half-word's index in flat_halves, -1 for none
    half = np.where(consumed % 2 == 1, 2 * (row_start - base) + consumed, -1)

    ahead = np.arange(3)[:, None]

    def uniforms(index):
        """`random()` of the words at flat `index`."""
        word = flat_words[index]
        word >>= 11
        return word * _UNIT

    def halfwords(n):
        """n `integers` draws by every lane: their half-words, (n x lanes),
        the buffered one first."""
        nonlocal pos, half
        buffered = half >= 0
        index = 2 * pos - buffered + ahead[:n]
        index[0] = np.where(buffered, half, index[0])
        fresh = n - buffered  # half-words taken from fresh words
        pos = pos + (fresh + 1) // 2
        half = np.where(fresh % 2 == 1, 2 * pos - 1, -1)
        return flat_halves[index].astype(np.int64)

    def bit(mask):
        """`integers(2)` for the lanes in `mask`."""
        nonlocal pos, half
        buffered = half >= 0
        index = np.where(buffered, half, 2 * pos)
        half = np.where(mask, np.where(buffered, -1, index + 1), half)
        pos = pos + (mask & ~buffered)
        return (flat_halves[index] >> 31).astype(np.int64)

    z_p1, z_post = table.z_p1, table.z_post

    def measure_z(state, position, u):
        """Outcome and post-state of a Z measurement with uniform u."""
        slot = state * _Z_SLOTS + position
        outcome = u < z_p1[slot]
        return outcome, z_post[2 * slot + outcome]

    legs = (Leg.FORWARD_TP_TO_ALICE, Leg.FORWARD_TP_TO_BOB)
    forged = [leg in attack.forged for leg in legs]
    measured = [leg in attack.measured for leg in legs]
    swapped = [attack.swap_back and f for f in forged]
    # the forgery bits drawn right after the kind, before any measurement in transit
    lead = [s for s in (0, 1) if forged[s] and not any(measured[:s])]
    encoded = None if improved else [
        (k ^ r ^ s).reshape(-1) for r, s in ((ra, x), (rb, y))
    ]
    lane_bits = np.arange(count) * L
    count_calc = [np.zeros(count, np.int64), np.zeros(count, np.int64)]
    # Per side and round: SIFT or not, detect or not, the bit sent on a SIFT,
    # and the state of the qubit TP receives (-1: the Bell half, in the pair's
    # register). State ids 0 and 1 are |0> and |1>, so a sent bit is its state.
    sift = np.zeros((2, rounds, count), bool)
    detect = np.zeros((2, rounds, count), bool)
    sent = np.zeros((2, rounds, count), np.int8)
    back = np.full((2, rounds, count), -1, np.int16)
    kinds = np.zeros((rounds, count), np.int8)
    pair_states = np.zeros((rounds, count), np.int16)  # the Bell pair's register
    for i in range(rounds):
        draws = halfwords(1 + len(lead))
        kinds[i] = kind = draws[0] >> 30
        r0 = kind + 2
        fake = [None, None]
        for s, value in zip(lead, draws[1:]):
            fake[s] = value >> 31
        for s in (0, 1):
            if forged[s] and s not in lead:
                fake[s] = halfwords(1)[0] >> 31
            elif measured[s] and not forged[s]:
                r0 = measure_z(r0, s, uniforms(pos))[1]
                pos = pos + 1
        for s in (0, 1):
            sifts = sift[s, i]
            if improved:
                # the choice, the detect draw of a SIFT, the measurement of a
                # calculate, or the trap bit of a detect after both words
                u = uniforms(pos + ahead)
                np.greater_equal(u[0], p_ctrl, out=sifts)
                detects = detect[s, i]
                np.logical_and(sifts, u[1] < p_detect, out=detects)
                calc = sifts & ~detects
                pos = pos + 1 + sifts + calc
                trap = bit(detects)
                u = u[2]
                if fake[s] is None:
                    out, post = measure_z(r0, s, u)
                    r0 = np.where(calc, post, r0)
                else:
                    out = measure_z(fake[s], 0, u)[0]
                sent[s, i] = np.where(detects, trap, out)
            else:
                np.greater_equal(uniforms(pos), p_ctrl, out=sifts)
                pos = pos + 1
                calc = sifts
                sent[s, i] = encoded[s][lane_bits + np.minimum(count_calc[s], L - 1)]
                filler = calc & (count_calc[s] >= L)
                if filler.any():
                    sent[s, i] = np.where(filler, bit(filler), sent[s, i])
            count_calc[s] += calc
            if not swapped[s]:
                received = -1 if fake[s] is None else fake[s]
                back[s, i] = np.where(sifts, sent[s, i], received)
        pair_states[i] = r0

    # -- 3. the insider's measurements, then TP's pass -------------------------
    # Both draw only `random()`: the insider one word per SIFT round of
    # Alice's (measuring her outgoing qubit), TP one per case-1 round and per
    # SIFT qubit. Each lane reads them from where its play ended, in its row.
    observe = attack.insider and attack.swap_back
    case1 = ~sift[0] & ~sift[1]
    draws = sift.sum(axis=0, dtype=np.int8)
    draws[case1] = 1
    need = draws.sum(axis=0) + (sift[0].sum(axis=0) if observe else 0)
    if (pos - row_start + need > limit).any():
        raise AssertionError("a lane read past its row of words")
    if observe:
        index = np.cumsum(sift[0], axis=0)
        index += pos - 1
        learned = measure_z(sent[0], 0, uniforms(index))[0]
        pos = index[-1] + 1
    index = np.cumsum(draws, axis=0)
    index += pos - draws
    u_a = uniforms(index)  # Alice's Z, or the Bell measurement
    index += sift[0]
    u_b = uniforms(index)
    del words, halves, flat_words, flat_halves, index
    in_pair = back < 0
    out_a, post = measure_z(np.where(in_pair[0], pair_states, back[0]), 0, u_a)
    r0 = np.where(sift[0] & in_pair[0], post, pair_states)
    out_b = measure_z(np.where(in_pair[1], r0, back[1]), in_pair[1], u_b)[0]

    # Bell measurements of the double-CTRL rounds; Alice's qubit is first in
    # its register, and Bob's follows hers when the two are merged.
    cells = np.flatnonzero(case1)
    a, b, r0 = back[0].flat[cells], back[1].flat[cells], pair_states.flat[cells]
    reg_a, reg_b = np.where(a < 0, r0, a), np.where(b < 0, r0, b)
    same = (a < 0) & (b < 0)
    merged = np.where(same, r0, table.kron[reg_a, reg_b])
    if (merged < 0).any():
        raise ValueError(f"attack {spec.attack!r} merges registers outside the table")
    slot = merged * _BELL_SLOTS + np.where(same, 1, table.qubits[reg_a] + (b < 0))
    draw = u_a.flat[cells] * table.bell_total[slot]
    outcome = (draw[:, None] >= table.bell_cum[slot, :3]).sum(axis=1)
    wrong = np.zeros(rounds * count, bool)
    wrong[cells] = outcome != kinds.flat[cells]

    # -- 4. checks and comparison values ----------------------------------------
    case1_rounds = case1.sum(axis=0)
    case1_errors = wrong.reshape(rounds, count).sum(axis=0)
    traps = detect.sum(axis=1)
    bad = [(detect[s] & (out != sent[s])).sum(axis=0) for s, out in ((0, out_a), (1, out_b))]

    def fails(errors, checked):
        return (errors > 0) & (errors / np.maximum(checked, 1) > spec.threshold)

    reason = np.select(
        [
            fails(case1_errors, case1_rounds),
            improved & (fails(bad[0], traps[0]) | fails(bad[1], traps[1])),
            (count_calc[0] < L) | (count_calc[1] < L),
        ],
        [1, 2, 3],
        0,
    )
    done = reason == 0
    # each completed lane's first L calculate rounds per side, lane by lane
    calc = sift & ~detect
    paired = (calc & (np.cumsum(calc, axis=1, dtype=np.int32) <= L) & done).transpose(0, 2, 1)
    ma = out_a.T[paired[0]].reshape(-1, L)
    mb = out_b.T[paired[1]].reshape(-1, L)
    if improved:  # masks RA ^ RA' = K ^ x ^ (calculate bit)
        pub_a = k[done] ^ x[done] ^ sent[0].T[paired[0]].reshape(-1, L)
        pub_b = k[done] ^ y[done] ^ sent[1].T[paired[1]].reshape(-1, L)
    else:
        pub_a, pub_b = ra[done], rb[done]
    r = ma ^ mb ^ pub_a ^ pub_b
    first_diff = np.zeros(count, np.int64)
    first_diff[done] = np.where(r.any(axis=1), r.argmax(axis=1) + 1, 0)
    recovered = np.full(count, -1, np.int8)
    if attack.insider and attack.swap_back and not improved:
        decoded = learned.T[paired[0]].reshape(-1, L) ^ ra[done] ^ k[done]
        recovered[done] = (decoded == x[done]).all(axis=1)
    return Lanes(
        reason,
        first_diff,
        (first_diff == 0) == (x == y).all(axis=1),
        traps[0],
        traps[1],
        case1_rounds,
        case1_errors,
        bad[0] + bad[1],
        recovered,
    )
