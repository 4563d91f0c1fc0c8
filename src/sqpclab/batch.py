"""Batched trial engine: an experiment's trials run in chunks of numpy
arrays, draw for draw the stream `harness.run_trial` makes.

Every random decision of the lab is one of three numpy `Generator` calls,
and each is a fixed function of the PCG64 bit generator's 64-bit output
words w:

    - ``random()`` takes one word: ``(w >> 11) * 2**-53`` (`_uniforms`);
    - ``integers(high)``, for a power of two ``high``, takes one 32-bit
      half-word u: ``(u * high) >> 32`` (numpy's Lemire method never rejects
      for such a range), so a bit is ``u >> 31`` and a Bell kind ``u >> 30``.
      A word gives its low half first; its high half is kept for the next
      half-word draw, across `random()` calls too, as numpy's
      ``next_uint32`` does (`_half`);
    - ``integers(0, 2, size=n)`` is n such half-word draws.

`pcg64_states` seeds PCG64 for consecutive indices i of
``SeedSequence([seed, i])`` at once, for indices that differ only in their
low 32 bits: the SeedSequence mixing in numpy uint32 arithmetic over the
vector of indices, PCG64's two-step seeding in 128-bit arithmetic on pairs
of uint64 limbs. No Python int is built: `_pcg64_reader` writes each lane's
limbs straight into one PCG64's state words and reads its row, 1.6-2.2 µs a
lane at L=1 for the write, `random_raw` and the row copy. The scalar engine
draws through numpy's own `Generator`, so the lane tests, which compare the
two engines report for report, check this seeding and those rules.

Every operation of the protocols is Clifford, and no register they build
holds more than three qubits, so a round's quantum state is one of a few
dozen vectors. `transition_table` numbers them once, lazily, and stores
each transition as numpy arrays indexed by state id: a Z measurement's
p1 and post-states per position, a Bell measurement's total, cumulative
weights and post-states per ordered pair, and the state of two registers
merged. Every float is the simulator's own memo entry (`qsim._z_memo`,
`qsim._bell_memo`), so the engine's `u < p1` and `u * total < bound`
compare the same floats as `Simulator.measure_z` and `measure_bell`.

`run_chunks` runs an experiment as chunks of trials (`SEED_BLOCK`,
`MAX_LANE_ROUNDS`), and `run_chunk` runs trials `first` to
`first + count - 1`, one lane each. Each lane reads its trial's raw PCG64
words from one row of a (lanes x words) matrix and decodes them by the
rules above: a word cursor, and a buffered half-word that the next
half-word draw takes first. The row holds a proven worst case of all the
words a trial reads (`trial_words`), so each lane's row is read once, and a
lane that would read past its row raises. `run_chunk` runs these stages,
each a function of arrays:

    1. `seed_and_read`: seed the lanes and read their rows;
    2. `draw_keys`: key and secret bits, one block for every lane, then
       unequal-mode redraws of y for the lanes that need them;
    3. `advance_cursors`: each lane's cursor at the start of every round, a
       node ``2 * word + buffered``. A round depends on the rounds before it
       only through the node (and, in jiang, whether each side has made its
       L calculates, after which its SIFTs draw a filler bit), and which
       words a round reads depends only on that and on each word's choice
       and detect codes (u >= p_ctrl, u < p_detect). So tables built once
       per pair by `_walk_round` give each word's two nodes a byte, looked
       up once per chunk from the word's window of codes: an improved round
       is then one lookup of its step and one add; a jiang round looks up
       the step of its byte by whether each side draws filler bits, and
       counts SIFTs only while they can change that;
    4. `play_rounds`: the round program, over slices of (rounds x lanes)
       cells at once: `_walk_round` from each cell's cursor gives every
       draw's position, then the Bell kind, the forward legs as the `Attack`
       columns say (a forgery bit, or a Z measurement in transit), each
       participant's choice and SIFT, and the quantum updates as lookups in
       the transition table. Only the kind can read a half-word that an
       earlier round left buffered: every round's first draw either takes
       the buffered half or buffers one;
    5. `measure_returns`: an insider's measurements of Alice's held
       returns, then TP's pass. Both draw only `random()`, one word per
       measurement, so each round's word offset is a cumulative sum over the
       played choices, from where the play ended;
    6. `check_lanes`: the checks and the comparison values, per lane.

Each draw the scalar engine makes is made at the same stream position, also
when its result is unused, such as a Z measurement of an eigenstate. No
`Simulator`, channel strategy, `RoundRecord` or `Transcript` is built; the
per-lane report fields come back as `Lanes` arrays.
"""
from __future__ import annotations

import ctypes
import math
from functools import cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

from . import qsim
from .adversary import ATTACKS
from .protocol import AbortReason, Leg

_UNIT = 2.0**-53
# Trials run in chunks that start at a multiple of their size, a power of
# two up to SEED_BLOCK, so a chunk never straddles 2**32 and one
# `pcg64_states` call seeds it. A chunk's fixed cost, 0.7-0.8 ms (seeding,
# the stages' numpy calls, the harness's fold), is a quarter to a half of a
# 256-lane chunk at L=1, where a lane costs 3.5-7 us, its seeding and row
# read included; 1024 lanes pay it a quarter as often, for 2 MiB more
# peak RSS (2048 would add near 4 MiB).
# A full-width chunk at L=1 peaks near 1,900 KiB traced. The cap stays at
# or below SLICE_CELLS, so one round of a chunk fits a slice.
SEED_BLOCK = 1024
# Lanes times rounds of one chunk, unless a single trial has more rounds.
# Arrays of a chunk of many lanes take near 130 bytes per lane-round (the
# traced peak of improved measure-resend is 117 at L=64 and 128, 116 with 4
# lanes at L=4,096, and jiang measure-resend's 93 at L=64; improved's row
# of words is 86 of them, and the cursor step's bytes, one per node, 21),
# so they stay near 33 MiB. But a chunk holds at least one lane, and a
# 1-lane chunk takes near 155 bytes per round (149 traced at L=1,024, 119 at
# 4,096), so one of more than 2**18 rounds grows past 33 MiB: at
# `harness.MAX_ROUNDS`, to 117 MiB traced.
MAX_LANE_ROUNDS = 1 << 18
# Columns per state: Z at positions 0-3, Bell at ordered pairs 4 * a + b.
_Z_SLOTS, _BELL_SLOTS = 4, 16
# The closure holds 82 states; the bound stops one that would not end.
MAX_TABLE_STATES = 128
# Lane-rounds that the round program and TP's pass take at once, so their
# temporaries stay below 1 MiB however many rounds a chunk plays.
SLICE_CELLS = 1 << 11
# Words that a row's read and the cursor step's windows of codes take at
# once, so their temporaries stay below 256 KiB however long a row is.
SLICE_WORDS = 1 << 14

# Lanes.reason codes: completed, then the abort reasons in declaration order.
REASONS = (None, *AbortReason)

_LEGS = (Leg.FORWARD_TP_TO_ALICE, Leg.FORWARD_TP_TO_BOB)


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
    # [pair, 1 + a, 1 + b]: the Bell slot of TP's measurement of a double-CTRL
    # round, by the pair's register and what each side returns (-1: its half
    # of the pair, 0 or 1: a forgery), Alice's qubit first; -1 for none
    bell_slot: np.ndarray


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
        None,
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
    pair = np.arange(size)[:, None, None]
    a, b = np.arange(-1, 2)[:, None], np.arange(-1, 2)
    reg_a, reg_b = np.where(a < 0, pair, a), np.where(b < 0, pair, b)
    same = (a < 0) & (b < 0)
    merged = np.where(same, pair, table.kron[reg_a, reg_b])
    slot = merged * _BELL_SLOTS + np.where(same, 1, table.qubits[reg_a] + (b < 0))
    table = table._replace(bell_slot=np.where((merged < 0) | (table.qubits[pair] != 2), -1, slot))
    for column in table[1:]:
        column.flags.writeable = False
    return table


class Lanes(NamedTuple):
    """Each lane's `TrialReport` fields, as arrays over the lanes."""

    reason: np.ndarray  # index into REASONS
    first: np.ndarray  # first differing ordinal of a completed lane, 0 for none
    correct: np.ndarray  # verdict_correct of a completed lane, False for an aborted one
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


def _half_words_per_round(attack, improved: bool) -> int:
    """A worst case of one round's play draws, in half-words (a `random()`
    is 2, an `integers` draw 1): the kind, a forgery bit per forged leg, a
    measurement per measured leg, and each side's choice and SIFT (improved:
    the detect draw, then a measurement or a trap bit; jiang: a filler bit).
    h half-word draws read at most ceil(h / 2) words, so a round's play
    reads at most half this many words, however its draws interleave."""
    side = 6 if improved else 3
    return 1 + len(attack.forged) + 2 * len(attack.measured) + 2 * side


def _key_words(spec) -> int:
    """The words of a trial's key and secret bits, a half-word each."""
    return (spec.drawn_blocks() * spec.secret_bits + 1) // 2


def _play_words(spec) -> int:
    """A proven worst case of the words one trial's play reads."""
    half_words = _half_words_per_round(ATTACKS[spec.attack], spec.protocol == "improved")
    return -(-spec.num_rounds() * half_words // 2)


def trial_words(spec) -> int:
    """A proven worst case of the raw words one trial reads, unequal-mode
    redraws of y aside: its key and secret bits, a half-word each; its play
    (`_half_words_per_round`); TP's pass, one word per case-1 round and per
    SIFT qubit, so at most 2 a round; and an insider's measurement of each
    of Alice's held returns, at most 1 a round. It is the width of a lane's
    row."""
    attack = ATTACKS[spec.attack]
    later = (2 + (attack.insider and attack.swap_back)) * spec.num_rounds()
    return _key_words(spec) + _play_words(spec) + later


# -- seeding ---------------------------------------------------------------------

_LOW32 = 0xFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier, as (high, low) uint64 limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HIGH, _MULT_LOW = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))


def _hasher(const: int, mult: int):
    """SeedSequence's hash step over uint32 arrays, with its running constant."""

    def step(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _LOW32
        value = value * const
        return value ^ (value >> 16)

    return step


def _words32(value: int, count: int) -> list[np.ndarray]:
    """`value`'s 32-bit words, least significant first, each repeated
    `count` times; as SeedSequence coerces an int, 0 has one word."""
    return [
        np.full(count, value >> shift & _LOW32, dtype=np.uint32)
        for shift in range(0, max(value.bit_length(), 1), 32)
    ]


def pcg64_states(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64's state and inc for ``SeedSequence([seed, i])``, i from `first`
    to `first + count - 1`, which must share their bits above the low 32:
    a (count x 4) uint64 array of (state low, state high, inc low, inc
    high), 0.25 ms for 1024 indices."""
    high = first >> 32
    if first < 0 or (first + count - 1) >> 32 != high:
        raise ValueError("trial indices must be non-negative and share their high words")
    # The entropy words, as SeedSequence coerces [seed, i]: seed's 32-bit
    # words, least significant first, then i's.
    words = _words32(seed, count)
    words.append(np.arange(first & _LOW32, (first & _LOW32) + count, dtype=np.uint32))
    if high:
        words += _words32(high, count)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 outputs, paired low word first,
    # give PCG64's seed (two words) and stream (two words), high word first.
    output = _hasher(_INIT_B, _MULT_B)
    out = [output(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    seed_high, seed_low, inc_high, inc_low = (
        out[k] | out[k + 1] << np.uint64(32) for k in range(0, 8, 2)
    )
    # PCG64's seeding, mod 2**128 on (high, low) limbs: inc from the stream,
    # then two LCG steps around adding the seed to the state.
    inc = (inc_high << np.uint64(1) | inc_low >> np.uint64(63), inc_low << np.uint64(1) | np.uint64(1))
    state = _add128(_mul128(_add128(inc, (seed_high, seed_low))), inc)
    return np.stack((state[1], state[0], inc[1], inc[0]), axis=1)


def _add128(a, b):
    """a + b mod 2**128, each a (high, low) pair of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _mul128(a):
    """a * PCG64's multiplier mod 2**128: the full 128-bit product of the low
    limbs, from 32-bit halves, plus the cross products in the high limb."""
    half, mask = np.uint64(32), np.uint64(_LOW32)
    a0, a1 = a[1] & mask, a[1] >> half
    m0, m1 = _MULT_LOW & mask, _MULT_LOW >> half
    p00, p01, p10, p11 = a0 * m0, a0 * m1, a1 * m0, a1 * m1
    mid = (p00 >> half) + (p01 & mask) + (p10 & mask)
    low = (p00 & mask) | mid << half
    high = p11 + (p01 >> half) + (p10 >> half) + (mid >> half)
    return high + a[1] * _MULT_HIGH + a[0] * _MULT_LOW, low


def _pcg64_reader(limbs):
    """`read(lanes, starts, width)`: `width` raw words of each lane's PCG64,
    from word `start` of its stream on, as (lanes x width); `limbs` holds
    each lane's state and inc as `pcg64_states` gives them."""
    source = np.random.PCG64(0)
    # Each lane writes its limbs straight into the four uint64 words that
    # hold the state and inc, which the first field of the struct at
    # `state_address` points at; numpy's state-dict setter would take
    # 2.9-3.7 us a lane with its read at L=1. numpy does not document their
    # order (it differs without 128-bit integers), so a known state set
    # through that setter finds it, and leaves no buffered half-word; a
    # layout that is not a permutation of the known limbs raises before any
    # word is read.
    known = [1, 2, 3, 4]  # in `pcg64_states` order
    state = {"state": known[1] << 64 | known[0], "inc": known[3] << 64 | known[2]}
    source.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    words = ctypes.c_void_p.from_address(source.ctypes.state_address).value
    memory = np.frombuffer((ctypes.c_uint64 * 4).from_address(words), dtype=np.uint64)
    order = memory.tolist()
    if sorted(order) != known:
        raise RuntimeError(f"unknown PCG64 state layout: read {order} back for limbs {known}")
    limbs = limbs[:, [known.index(limb) for limb in order]]

    def read(lanes, starts, width: int) -> np.ndarray:
        rows = np.empty((len(lanes), width), dtype="<u8")
        pieces = [
            (slice(at, at + SLICE_WORDS), min(SLICE_WORDS, width - at)) for at in range(0, width, SLICE_WORDS)
        ]
        for row, lane, start in zip(rows, lanes, np.asarray(starts).tolist()):
            memory[:] = limbs[lane]
            if start:
                source.advance(start)
            for piece, size in pieces:
                row[piece] = source.random_raw(size)
        return rows

    return read


# -- the draws of one round ------------------------------------------------------


def _half(p, hb, drawn=None):
    """A half-word draw by the cells in `drawn` (all if None), from word
    cursor `p` and buffered half `hb` (its index into the half-words, -1 for
    none): the index of the half it reads, then the cursor after it. The
    buffered half goes first; otherwise a fresh word's low half, its high
    half buffered."""
    buffered = hb >= 0
    index = np.where(buffered, hb, 2 * p)
    after = np.where(buffered, -1, index + 1)
    if drawn is None:
        return index, p + ~buffered, after
    return index, p + (drawn & ~buffered), np.where(drawn, after, hb)


def _walk_round(attack, improved: bool, p, hb, code, filler):
    """Where each draw of a round falls, elementwise over arrays of cells
    whose round starts at word cursor `p` and buffered half `hb`: the Bell
    kind, each forward leg's forgery bit or measurement in transit, then
    each side's choice and SIFT. `code(q, detect)` is the choice code
    (u >= p_ctrl) of word q, or with `detect` its detect code
    (u < p_detect); `filler(side, sift)` gives the SIFT cells of `side`
    whose jiang SIFT draws a filler bit.

    Returns the kind's half index (where `hb` was buffered, `hb` itself),
    each forward leg's draw (a half index for a forgery, a word for a
    measurement, None for an untouched leg), each side's (sift, detect,
    measured word, bit half, cells drawing that bit), and the cursor after
    the round. A measured word is a calculate's Z measurement; a bit is a
    trap (improved) or filler (jiang) bit.
    """
    kind, p, hb = _half(p, hb)
    legs = []
    for leg in _LEGS:
        if leg in attack.forged:
            index, p, hb = _half(p, hb)
        elif leg in attack.measured:
            index, p = p, p + 1
        else:
            index = None
        legs.append(index)
    sides = []
    for side in (0, 1):
        sift = code(p, False)
        p = p + 1
        if improved:
            detect = sift & code(p, True)
            p = p + sift
            measured, drawn = p, detect
            p = p + (sift & ~detect)
        else:
            detect = measured = None
            drawn = filler(side, sift)
        bit, p, hb = _half(p, hb, drawn)
        sides.append((sift, detect, measured, bit, drawn))
    return kind, legs, sides, p, hb


class Steps(NamedTuple):
    """A round's cursor step, by node (see `_round_steps`)."""

    skip: int  # words a round reads before its first code, at the fewest
    window: int  # words whose codes a window holds
    # [codes]: a byte for each of a word's two nodes, buffered 0 in the low
    # byte and 1 in the high: improved, the node's step; jiang, its entry
    pair: np.ndarray
    # jiang, by entry | Alice's and Bob's filler bits << 2 * window + 1: the
    # node's step, and whether Alice (row 0) and Bob (row 1) SIFT
    step: np.ndarray | None
    sifts: np.ndarray | None


@cache
def _round_steps(attack: str, improved: bool) -> Steps:
    """`Steps` of a (protocol, attack) pair. A lane's cursor is the node
    ``2 * word + buffered``, and its round steps it by twice the words the
    round reads plus the change in its buffered bit. The step depends on a
    window of codes: the detect and choice codes of the `window` words from
    `skip` words past the cursor on, two bits a word from bit 0, the detect
    code below the choice code and held inverted (u >= p_detect), so that
    both are `_at_least` bits. A round reads no code before Alice's choice,
    and no detect code before a choice code, so never bit 0. A jiang entry
    is ``codes | buffered << 2 * window``; its step also depends on whether
    Alice and Bob draw filler bits. Built on first use, by `_walk_round`
    over every window, buffered bit and filler bits."""
    row = ATTACKS[attack]
    skip = (len(row.forged) + 1) // 2 + len(row.measured)  # with a half-word buffered
    # The words a round may read codes of, from `skip` on: Alice's choice
    # word comes a word later in some rows when no half-word is buffered,
    # and Bob's detect (improved) or choice (jiang) word ends them.
    window = 6 if improved else 3
    shift = 2 * window
    # codes | buffered << shift, then (jiang) Alice's and Bob's filler bits
    entry = np.arange(1 << shift + (1 if improved else 3), dtype=np.int32)
    buffered = entry >> shift & 1

    def code(q, detect):
        bit = 2 * (q - skip) + 1 - detect
        assert 0 < bit.min() and bit.max() < shift, "a round reads past its window of codes"
        return (entry >> bit & 1).astype(bool) ^ detect

    def filler(side, sift):
        return sift & (entry >> shift + 1 + side & 1).astype(bool)

    *_, sides, p, hb = _walk_round(row, improved, np.zeros_like(entry), buffered - 1, code, filler)
    step = 2 * p + (hb >= 0) - buffered
    assert 0 < step.min() and step.max() < 256, "a round's step outgrows its byte"
    if improved:
        step = step.astype("<u2")
        return Steps(skip, window, step[: 1 << shift] | step[1 << shift :] << 8, None, None)
    codes = np.arange(1 << shift, dtype="<u2")
    return Steps(
        skip, window, codes | (codes | 1 << shift) << 8,
        step.astype(np.intp), np.array([sides[0][0], sides[1][0]], np.uint8),
    )


def _at_least(words, bound: int, out=None):
    """words >= bound, for a bound up to 2**64, into `out` if given."""
    if bound < 1 << 64:
        return np.greater_equal(words, bound, out=out)
    out = np.empty(words.shape, bool) if out is None else out
    out[...] = False
    return out


def _code_bounds(spec) -> tuple[int, int]:
    """(ctrl, detect): u = (w >> 11) * 2**-53 is at least p_ctrl exactly for
    words w >= ctrl, and below p_detect exactly for words w < detect."""
    return tuple(math.ceil(p * 2**53) << 11 for p in (spec.p_ctrl, spec.p_detect))


def _uniforms(flat_words, index):
    """`random()` of the words at flat `index`."""
    word = flat_words[index]
    word >>= 11
    return word * _UNIT


def _measure_z(table, state, position, u):
    """Outcome and post-state of a Z measurement with uniform u."""
    slot = state * _Z_SLOTS + position
    outcome = u < table.z_p1[slot]
    return outcome, table.z_post[2 * slot + outcome]


def _slices(rounds: int, count: int):
    """Slices of the rounds, each of about SLICE_CELLS lane-rounds."""
    step = max(1, SLICE_CELLS // count)
    return [slice(r, r + step) for r in range(0, rounds, step)]


# -- the stages ----------------------------------------------------------------


class Keys(NamedTuple):
    """Each lane's key and secret bits, (lanes x L), and where its play
    starts: its next word in the flat row matrix, and the index of its
    buffered half-word (-1 for none)."""

    k: np.ndarray
    ra: np.ndarray
    rb: np.ndarray
    x: np.ndarray
    y: np.ndarray
    word: np.ndarray
    half: np.ndarray


class Play(NamedTuple):
    """Each played round, (rounds x lanes); per side (0 Alice, 1 Bob) first."""

    kinds: np.ndarray
    sift: np.ndarray
    detect: np.ndarray
    sent: np.ndarray  # the bit sent on a SIFT; a sent bit is its state's id
    back: np.ndarray  # the state TP receives; -1: the Bell half, in the pair's register
    pair: np.ndarray  # the Bell pair's register


class Returns(NamedTuple):
    """TP's measurements, (rounds x lanes): each side's Z outcome, Bell
    errors of the double-CTRL rounds, and a jiang insider's Z outcomes of
    Alice's held returns (None without one)."""

    out_a: np.ndarray
    out_b: np.ndarray
    wrong: np.ndarray
    learned: np.ndarray | None


def seed_and_read(spec, first: int, count: int, read=None):
    """Each lane's row of words, (lanes x words), and the reader (see
    `run_chunk`), which `draw_keys` calls again for unequal-mode redraws."""
    if read is None:
        read = _pcg64_reader(pcg64_states(spec.seed, first, count))
    # the last columns only pad a gather
    return read(range(count), np.zeros(count, np.int64), trial_words(spec) + 3), read


def draw_keys(spec, words, read) -> Keys:
    """The key and secret bits, a half-word each, then unequal-mode redraws
    of y, which re-read a lane's row from further on when they outgrow it."""
    count, width = words.shape
    L = spec.secret_bits
    drawn = spec.drawn_blocks() * L
    bits_end = _key_words(spec)  # redraws must end here too: `trial_words` counts none
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
    row_start = np.arange(count) * width - base
    half = np.where(consumed % 2 == 1, 2 * row_start + consumed, -1)
    return Keys(k, ra, rb, x, y, row_start + (consumed + 1) // 2, half)


def advance_cursors(spec, words, keys: Keys):
    """The cursor step: each lane's next word at the start of every round
    and after the last, (rounds + 1 x lanes), and whether it has a half-word
    buffered at the start of every round, (rounds x lanes). A lane's cursor
    is a node, ``2 * word + buffered``. Each word's window of codes is
    looked up once in `_round_steps`' pair table, which gives a byte for
    each of the word's two nodes, so a node indexes the bytes directly:
    improved, its step; jiang, its entry, whose step also depends on each
    side's filler bits."""
    improved = spec.protocol == "improved"
    steps = _round_steps(spec.attack, improved)
    skip, window = steps.skip, steps.window
    count, width = words.shape
    L, rounds = spec.secret_bits, spec.num_rounds()
    play_end = _key_words(spec) + _play_words(spec)
    ctrl, detect = _code_bounds(spec)
    # Each word's window of codes, a piece of the flat rows at a time: each
    # word's choice code above its inverted detect code (jiang reads none),
    # then windows of them by doubling, until `codes[c]` holds those of
    # words c + skip on. Windows that run into the next row, or past the
    # rows, hold codes that no lane reads: a lane that reads past its row
    # raises below.
    flat = words.reshape(-1)
    size = len(flat)
    by_node = np.empty(size, "<u2")
    scratch = [np.empty(SLICE_WORDS + window - 1, "<u2") for _ in range(2)]
    for at in range(0, size, SLICE_WORDS):
        drawn = flat[at + skip : at + skip + SLICE_WORDS + window - 1]
        codes, later = (part[: min(SLICE_WORDS, size - at) + window - 1] for part in scratch)
        codes[len(drawn) :] = 0
        _at_least(drawn, ctrl, out=codes[: len(drawn)])
        codes <<= 1
        if improved:
            codes[: len(drawn)] |= _at_least(drawn, detect, out=later[: len(drawn)])
        span = 1
        while span < window:
            np.left_shift(codes[span:], 2 * span, out=later[:-span])
            codes[:-span] |= later[:-span]
            span *= 2
        codes &= (1 << 2 * window) - 1
        np.take(steps.pair, codes[: 1 - window], out=by_node[at : at + SLICE_WORDS], mode="clip")
    by_node = by_node.view(np.uint8)

    node = np.empty((rounds + 1, count), np.int64)
    node[0] = 2 * keys.word + (keys.half >= 0)
    if improved:
        for now, after in zip(node[:-1], node[1:]):
            np.add(now, by_node[now], out=after)
    else:
        alice = 2 << 2 * window  # Alice's filler bit; Bob's is twice it

        def walk(first, last, fills):
            table = steps.step[fills : fills + alice]
            for now, after in zip(node[first:last], node[first + 1 : last + 1]):
                np.add(now, table.take(by_node[now]), out=after)

        # A side makes at most one SIFT a round, so none draws a filler bit
        # before round L. Its SIFTs count from round L - 1 on, until both
        # sides of every lane draw them: `made` holds each side's SIFTs so
        # far, Bob's offset by rounds + 1, so that both index `filled`.
        walk(0, L - 1, 0)
        made = steps.sifts.take(by_node[node[: L - 1]], axis=1).sum(axis=1, dtype=np.intp)
        made += [[0], [rounds + 1]]
        filled = np.where(np.arange(rounds + 1) >= L, [[alice], [2 * alice]], 0).reshape(-1)
        fill = np.zeros(count, np.intp)
        r = L - 1
        while r < rounds:
            entry = by_node[node[r]] | fill
            np.add(node[r], steps.step.take(entry), out=node[r + 1])
            made += steps.sifts.take(entry, axis=1)
            fills = filled.take(made)
            r += 1
            if np.count_nonzero(fills) == 2 * count:
                break
            np.bitwise_or(fills[0], fills[1], out=fill)
        walk(r, rounds, 3 * alice)
    del by_node
    buffered = (node[:-1] & 1).astype(bool)
    node >>= 1
    if (node[-1] - np.arange(count) * width > play_end).any():
        raise AssertionError("a lane read past its row of words")
    return node, buffered


def play_rounds(spec, words, word, buffered, keys: Keys) -> Play:
    """The round program, a slice of rounds at a time: every draw's
    position from each round's cursor (`_walk_round`), then the draws and
    the quantum updates, as lookups in the transition table."""
    table = transition_table()
    attack = ATTACKS[spec.attack]
    improved = spec.protocol == "improved"
    rounds, count = buffered.shape
    L = spec.secret_bits
    flat_words, flat_halves = words.reshape(-1), words.view("<u4").reshape(-1)
    ctrl, detect = _code_bounds(spec)
    swapped = [attack.swap_back and leg in attack.forged for leg in _LEGS]
    encoded = None if improved else [
        (keys.k ^ r ^ s).reshape(-1) for r, s in ((keys.ra, keys.x), (keys.rb, keys.y))
    ]
    lane_bits = np.arange(count) * L
    play = Play(
        np.empty((rounds, count), np.int8),
        np.empty((2, rounds, count), bool),
        np.zeros((2, rounds, count), bool),
        np.empty((2, rounds, count), np.int8),
        np.full((2, rounds, count), -1, np.int16),
        np.empty((rounds, count), np.int16),
    )
    left = keys.half  # the half-word each lane's next round may find buffered
    made = np.zeros((2, count), np.int64)  # each side's SIFTs before the slice
    upto = [None, None]  # jiang: each side's SIFTs up to each round of the slice

    def code(q, is_detect):
        drawn = flat_words[q]
        return ~_at_least(drawn, detect) if is_detect else _at_least(drawn, ctrl)

    def filler(side, sift):
        upto[side] = made[side] + np.cumsum(sift, axis=0)
        return sift & (upto[side] > L)

    for rows in _slices(rounds, count):
        b = buffered[rows]
        kind, legs, sides, _, hb = _walk_round(
            attack, improved, word[:-1][rows], b.astype(np.int64) - 1, code, filler
        )
        # A kind that finds a half buffered reads the one the round before left.
        kind = np.where(b, np.concatenate([left[None], hb[:-1]]), kind)
        left = hb[-1]
        play.kinds[rows] = kinds = flat_halves[kind] >> 30
        r0 = kinds + 2
        fake = [None, None]
        for s, (leg, index) in enumerate(zip(_LEGS, legs)):
            if leg in attack.forged:
                fake[s] = flat_halves[index] >> 31
            elif index is not None:
                r0 = _measure_z(table, r0, s, _uniforms(flat_words, index))[1]
        for s, (sift, is_detect, measured, bit, drawn) in enumerate(sides):
            bits = flat_halves[bit] >> 31
            if improved:
                u = _uniforms(flat_words, measured)
                if fake[s] is None:
                    out, post = _measure_z(table, r0, s, u)
                    r0 = np.where(sift & ~is_detect, post, r0)
                else:
                    out = _measure_z(table, fake[s], 0, u)[0]
                play.detect[s, rows] = is_detect
            else:
                out = encoded[s][lane_bits + np.minimum(upto[s] - sift, L - 1)]
                made[s] = upto[s][-1]
            play.sift[s, rows] = sift
            play.sent[s, rows] = sent = np.where(drawn, bits, out)
            if not swapped[s]:
                play.back[s, rows] = np.where(sift, sent, -1 if fake[s] is None else fake[s])
        play.pair[rows] = r0
    return play


def measure_returns(spec, words, play: Play, end) -> Returns:
    """An insider's measurement of each of Alice's held returns, then TP's
    pass, a slice of rounds at a time. The insider reads one word per SIFT
    round of Alice's (measuring her outgoing qubit), TP one per case-1
    round and per SIFT qubit; each lane reads them from where its play
    ended (`end`, its next word after the last round), in its row. Only a
    jiang insider decodes anything from the outcomes, so an improved one's
    words are skipped unread."""
    table = transition_table()
    attack = ATTACKS[spec.attack]
    count, width = words.shape
    flat_words = words.reshape(-1)
    sift = play.sift
    observe = attack.insider and attack.swap_back
    alice = sift[0].sum(axis=0)
    tp = len(sift[0]) + (sift[0] & sift[1]).sum(axis=0)  # 1 draw a round, 2 if both SIFT
    pos = end
    if (pos - np.arange(count) * width + tp + (alice if observe else 0) > trial_words(spec)).any():
        raise AssertionError("a lane read past its row of words")
    insider, pos = pos, pos + (alice if observe else 0)
    shape = sift.shape[1:]
    returns = Returns(
        np.empty(shape, bool), np.empty(shape, bool), np.empty(shape, bool),
        np.empty(shape, bool) if observe and spec.protocol == "jiang" else None,
    )
    for rows in _slices(*shape):
        a, b = sift[0, rows], sift[1, rows]
        if returns.learned is not None:
            index = np.cumsum(a, axis=0)
            index += insider - 1
            returns.learned[rows] = _measure_z(
                table, play.sent[0, rows], 0, _uniforms(flat_words, index)
            )[0]
            insider = index[-1] + 1
        case1 = ~a & ~b
        draws = np.maximum(a + b.astype(np.int8), case1)
        index = np.cumsum(draws, axis=0)
        index += pos - draws
        pos = index[-1] + draws[-1]
        u_a = _uniforms(flat_words, index)  # Alice's Z, or the Bell measurement
        u_b = _uniforms(flat_words, index + a)
        back, pair = play.back[:, rows], play.pair[rows]
        in_pair = back < 0
        returns.out_a[rows], post = _measure_z(table, np.where(in_pair[0], pair, back[0]), 0, u_a)
        r0 = np.where(a & in_pair[0], post, pair)
        returns.out_b[rows] = _measure_z(table, np.where(in_pair[1], r0, back[1]), in_pair[1], u_b)[0]

        # Bell measurements of the double-CTRL rounds. The other cells measure
        # their pair too and are not counted, so the arrays of every slice
        # have its size, which keeps the heap from fragmenting.
        held = np.where(case1, back, -1) + 1
        slot = table.bell_slot[pair, held[0], held[1]]
        if (slot < 0).any():
            raise ValueError(f"attack {spec.attack!r} merges registers outside the table")
        draw = u_a * table.bell_total[slot]
        outcome = (draw[..., None] >= table.bell_cum[slot, :3]).sum(axis=-1)
        returns.wrong[rows] = case1 & (outcome != play.kinds[rows])
    return returns


def check_lanes(spec, keys: Keys, play: Play, returns: Returns) -> Lanes:
    """The checks, Bell then traps then calculates, and each completed
    lane's comparison values."""
    L = spec.secret_bits
    improved = spec.protocol == "improved"
    k, ra, rb, x, y = keys[:5]
    sift, detect, sent = play.sift, play.detect, play.sent
    case1 = ~sift[0] & ~sift[1]
    case1_rounds = case1.sum(axis=0)
    case1_errors = returns.wrong.sum(axis=0)
    traps = detect.sum(axis=1)
    bad = [
        (detect[s] & (out != sent[s])).sum(axis=0)
        for s, out in ((0, returns.out_a), (1, returns.out_b))
    ]
    calc = sift & ~detect
    made = calc.sum(axis=1)

    def fails(errors, checked):
        return (errors > 0) & (errors / np.maximum(checked, 1) > spec.threshold)

    reason = np.select(
        [
            fails(case1_errors, case1_rounds),
            improved & (fails(bad[0], traps[0]) | fails(bad[1], traps[1])),
            (made[0] < L) | (made[1] < L),
        ],
        [1, 2, 3],
        0,
    )
    done = reason == 0
    # each completed lane's first L calculate rounds per side, lane by lane
    paired = (calc & (np.cumsum(calc, axis=1, dtype=np.int32) <= L) & done).transpose(0, 2, 1)
    ma = returns.out_a.T[paired[0]].reshape(-1, L)
    mb = returns.out_b.T[paired[1]].reshape(-1, L)
    if improved:  # masks RA ^ RA' = K ^ x ^ (calculate bit)
        pub_a = k[done] ^ x[done] ^ sent[0].T[paired[0]].reshape(-1, L)
        pub_b = k[done] ^ y[done] ^ sent[1].T[paired[1]].reshape(-1, L)
    else:
        pub_a, pub_b = ra[done], rb[done]
    r = ma ^ mb ^ pub_a ^ pub_b
    count = len(reason)
    first_diff = np.zeros(count, np.int64)
    first_diff[done] = np.where(r.any(axis=1), r.argmax(axis=1) + 1, 0)
    recovered = np.full(count, -1, np.int8)
    if returns.learned is not None:
        decoded = returns.learned.T[paired[0]].reshape(-1, L) ^ ra[done] ^ k[done]
        recovered[done] = (decoded == x[done]).all(axis=1)
    return Lanes(
        reason,
        first_diff,
        done & ((first_diff == 0) == (x == y).all(axis=1)),
        traps[0],
        traps[1],
        case1_rounds,
        case1_errors,
        bad[0] + bad[1],
        recovered,
    )


def run_chunk(spec, first: int, count: int, read=None) -> Lanes:
    """Trials `first` to `first + count - 1` of `spec`'s experiment, each
    giving the report fields `harness.run_trial` gives. `read(lanes, starts,
    width)` supplies raw words as `_pcg64_reader` does; by default, those
    of the trials' own streams. It is called once for every lane with
    `starts` 0, and again, from further on, only for unequal-mode lanes
    whose redraws of y outgrow their rows."""
    words, read = seed_and_read(spec, first, count, read)
    keys = draw_keys(spec, words, read)
    word, buffered = advance_cursors(spec, words, keys)
    play = play_rounds(spec, words, word, buffered, keys)
    returns = measure_returns(spec, words, play, word[-1])
    del words, word, buffered
    return check_lanes(spec, keys, play, returns)


def run_chunks(spec):
    """Each chunk's `Lanes`, in trial order: chunks of SEED_BLOCK trials, or
    of a power of two below it that keeps lanes x rounds within
    MAX_LANE_ROUNDS, down to one trial a chunk."""
    step = SEED_BLOCK
    while step > 1 and step * spec.num_rounds() > MAX_LANE_ROUNDS:
        step //= 2
    for first in range(0, spec.trials, step):
        yield run_chunk(spec, first, min(step, spec.trials - first))
