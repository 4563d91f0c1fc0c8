"""Batched trial engine: an experiment's trials run in chunks of numpy
arrays, draw for draw the stream `harness.run_trial` makes.

Every random decision of the lab is one of three numpy `Generator` calls,
and each is a fixed function of the PCG64 bit generator's 64-bit output
words w:

    - ``random()`` takes one word: ``k * 2**-53``, k = w >> 11 (`_draws`);
    - ``integers(high)``, for a power of two ``high``, takes one 32-bit
      half-word u: ``(u * high) >> 32`` (numpy's Lemire method never rejects
      for such a range), so a bit is ``u >> 31`` and a Bell kind ``u >> 30``.
      A word gives its low half first; its high half is kept for the next
      half-word draw, across `random()` calls too, as numpy's
      ``next_uint32`` does (`_half`);
    - ``integers(0, 2, size=n)`` is n such half-word draws.

`pcg64_states` seeds PCG64 for consecutive indices i of
``SeedSequence([seed, i])`` at once, for indices that differ only in their
low 32 bits: the SeedSequence mixing in numpy uint32 arithmetic on a
(4 x lanes) pool, in blocks of rows, PCG64's two-step seeding in 128-bit
arithmetic on pairs of uint64 limbs. `_pcg64_reader` writes each lane's
limbs straight into the state words of its thread's PCG64 and reads its
row, 1.6-2.2 µs a lane at L=1. The scalar engine draws through numpy's
own `Generator`, so the lane tests, which compare the two engines report
for report, check this seeding and those rules.

Every operation of the protocols is Clifford, and no register they build
holds more than three qubits, so a round's quantum state is one of a few
dozen vectors. `transition_table` numbers them once, lazily, and stores
only what the stages read, as numpy arrays indexed by state id: a Z
measurement's bound and post-states per position, the register TP
Bell-measures in a double-CTRL round by what each side returns, and that
measurement's bounds per kind, of the register's first and last qubit,
the only pair TP measures. Each bound is derived exactly from the
simulator's own memo entry (`qsim._z_memo`, `qsim._bell_memo`; `Table`),
so the stages give `Simulator.measure_z`'s and `measure_bell`'s outcomes
and convert no word to a float.

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
       per pair by `_round_shapes` give each word's two nodes a byte, looked
       up once per chunk from the word's window of codes: an improved round
       is then one lookup of its step and one add; a jiang round looks up
       the step of its byte by whether each side draws filler bits, and
       counts SIFTs only while they can change that. A chunk of many lanes
       steps all its lanes a round at a time in numpy; one of fewer than
       `NARROW_LANES` walks each lane's rounds in a Python loop, which
       costs less than a round's numpy calls when a round has few lanes;
    4. `play_rounds`: the round program, over slices of (rounds x lanes)
       cells at once. A round's draws lie at offsets from its word that
       depend only on its key, its buffered bit and each side's choice code
       and next bit, which `_round_shapes` tabulates once per pair; then
       the Bell kind, the forward legs as the `Attack` columns say (a
       forgery bit, or a Z measurement in transit), each participant's
       choice and SIFT, and the quantum updates as lookups in the
       transition table. Only the kind can read a half-word that an earlier
       round left buffered: every round's first draw either takes the
       buffered half or buffers one;
    5. `measure_returns`: TP's pass. It draws only `random()`, one word per
       measurement, so each round's word offset is a cumulative sum over the
       played choices, from where the play ended, past an insider's words
       (its Z measurements of Alice's outgoing qubits, skipped unread: see
       below). Its Z of a return yields one bit, whether it differs from
       the bit sent. Its Bell check of a double-CTRL round finds its
       register's entry with one flat lookup and compares the draw k with
       the entry's two bounds of the prepared kind (`Table.bell_k`):
       `measure_bell` picks the first kind whose cumulative weight exceeds
       the draw ``u * total``, and those weights never decrease, so the
       draw gives that kind exactly when k lies between the bounds;
    6. `check_lanes`: the checks and the comparison values, per lane, from
       TP's Bell errors and those bits.

Each draw the scalar engine makes keeps its stream position, also when its
result is unused, such as a Z measurement of an eigenstate; one of |0> or
|1> (a forgery, or Alice's outgoing qubit) gives its bit whatever the word,
so its word is counted and not read. No `Simulator`, channel strategy,
`RoundRecord` or `Transcript` is built; the per-lane report fields come
back as `Lanes` arrays.
"""
from __future__ import annotations

import ctypes
import itertools
import math
import threading
from array import array
from functools import cache
from typing import NamedTuple

import numpy as np

from . import qsim
from .adversary import ATTACKS
from .protocol import AbortReason, Leg

# Trials run in chunks that start at a multiple of their size, a power of
# two up to SEED_BLOCK, so a chunk never straddles 2**32 and one
# `pcg64_states` call seeds it. A chunk's fixed cost, 0.6-0.7 ms (seeding,
# the stages' numpy calls, the harness's fold), is a quarter to a half of a
# 256-lane chunk at L=1, where a lane costs 3.5-7 us, its seeding and row
# read included; 1024 lanes pay it a quarter as often, for 2 MiB more
# peak RSS (2048 would add near 4 MiB).
# A full-width chunk at L=1 peaks near 1,900 KiB traced (1,718 measured,
# improved measure-resend, in the round program). The cap stays at or
# below SLICE_CELLS, so one round of a chunk fits a slice.
SEED_BLOCK = 1024
# Lanes times rounds of one chunk, unless a single trial has more rounds.
# Arrays of a chunk of many lanes take near 130 bytes per lane-round (the
# traced peak of improved measure-resend is 116 at L=64 and 128 and 120 with
# 4 lanes at L=4,096, and jiang measure-resend's 93 at L=64; improved's row
# of words is 86 of them, and the cursor step's bytes, one per node, 21),
# so they stay near 33 MiB. But a chunk holds at least one lane, and a
# 1-lane chunk takes near 155 bytes per round (145 traced at L=1,024, 134 at
# 4,096), so one of more than 2**18 rounds grows past 33 MiB: at
# `harness.MAX_ROUNDS`, to 116 MiB traced.
MAX_LANE_ROUNDS = 1 << 18
# Z columns per state: Z measures registers of up to 2 qubits.
_Z_SLOTS = 2
# The closure holds 42 states; the bound stops one that would not end.
MAX_TABLE_STATES = 128
# TP's int16 lookups stay below 2**15: 9 * pair + 8 into `bell_register`,
# and 5 times that + kind + 1 into `bell_k`.
assert MAX_TABLE_STATES * 45 < 2**15, "TP's Bell indices outgrow int16"
# Lane-rounds that the round program and TP's pass take at once, so their
# temporaries stay below 1 MiB however many rounds a chunk plays. Half as
# many would run an improved sweep-l8 chunk's rounds in 9 slices, not 5,
# for an 11% lower traced peak at L=1 (1,552 KiB).
SLICE_CELLS = 1 << 12
# Words that a row's read and the cursor step's windows of codes take at
# once, so their temporaries stay below 256 KiB however long a row is.
SLICE_WORDS = 1 << 14
# A chunk of fewer lanes walks its cursors a lane at a time in Python
# (`_walk_lanes`), not a round at a time in numpy, whose calls cost about
# 1 us a round whatever the width. Measured on `advance_cursors` at L=8 and
# 64: at 8 lanes the lane walk is 1.8-2.0x as fast for jiang and 1.2-1.3x
# for improved, at 12 lanes 1.5x and 0.94-0.95x, at 16 lanes 1.2x and 0.8x.
NARROW_LANES = 12

# Lanes.reason codes: completed, then the abort reasons in declaration order.
REASONS = (None, *AbortReason)

_LEGS = (Leg.FORWARD_TP_TO_ALICE, Leg.FORWARD_TP_TO_BOB)


class Table(NamedTuple):
    """The protocols' register states and the transitions the stages read,
    by state id.

    Ids 0 and 1 are |0> and |1>, so a basis bit is its state's id, and ids
    2 to 5 are the Bell states in BellKind order. Z measures registers of
    up to 2 qubits; TP Bell-measures the register of a double-CTRL round at
    its first and last qubit, Alice's and Bob's. The id columns (`z_post`,
    `bell_register`) are int16, as is every state id and Bell index the
    stages compute from them, and hold -1 for none. The stages read no
    float, but uint64 bounds on the draw k derived exactly from the
    simulator's own memo entries (`qsim._z_memo`, `qsim._bell_memo`): u < p1
    exactly when k < `z_k`, and a Bell draw gives a kind exactly when k lies
    in its `bell_k` range.
    """

    states: tuple  # the interned qsim state of each id
    z_k: np.ndarray  # [pos, id]: `_least_k(p1)`; 0 for no measurement
    z_post: np.ndarray  # [(id * 2 + pos) * 2 + outcome]
    # [pair, 1 + a, 1 + b]: the register TP Bell-measures in a double-CTRL
    # round, by the pair's register and what each side returns (-1: its half
    # of the pair, 0 or 1: a forgery), Alice's qubit first; -1 for none
    bell_register: np.ndarray
    # [5 * entry + kind], [.. + 1], by flat `bell_register` entry: the ks
    # that give `kind` lie in [lower, upper), the `_least_draws` of the
    # memo's total and its cumulative weights; 0s for an entry without one
    bell_k: np.ndarray


@cache
def transition_table() -> Table:
    """The closure of the 2 basis states and the 4 Bell states under Z
    measurement at each position, then, for each register of 2 qubits, the
    registers TP Bell-measures: the pair itself, or it merged with the
    forgeries returned in place of its halves. Built on first use."""
    states, ids = [], {}

    def number(state):
        if state is None:
            return -1
        if state.key not in ids:
            assert len(states) < MAX_TABLE_STATES, "transition table outgrew its bound"
            ids[state.key] = len(states)
            states.append(state)
        return ids[state.key]

    def merge(first, second):
        return number(first.kron.get(second.key) or qsim._kron(first, second))

    basis = [qsim._intern(1, row) for row in qsim._Z_BASIS]
    for state in basis + [qsim._intern(2, row) for row in qsim._BELL_BASIS]:
        number(state)  # ids 0 and 1: |0> and |1>; 2 to 5: the Bell states
    z, done = {}, 0
    while done < len(states):  # registers of 1 and 2 qubits
        state = states[done]
        for pos in range(state.num_qubits):
            p1, posts = state.z.get(pos) or qsim._z_memo(state, pos)
            z[done, pos] = _least_k(p1), list(map(number, posts))
        done += 1
    registers = {}  # flat `bell_register` entry: id
    for i, pair in enumerate(states[:done]):
        if pair.num_qubits == 2:
            returned = itertools.product((None, *basis), repeat=2)  # 1 + a, 1 + b
            for entry, (a, b) in enumerate(returned, 9 * i):
                registers[entry] = i if a is None and b is None else merge(a or pair, b or pair)

    size = len(states)
    z_k, z_post = np.zeros((_Z_SLOTS, size), np.uint64), np.full((size, _Z_SLOTS, 2), -1, np.int16)
    for (i, pos), (k, posts) in z.items():
        z_k[pos, i], z_post[i, pos] = k, posts
    bell_register, bell_k = np.full(9 * size, -1, np.int16), np.zeros((9 * size, 5), np.uint64)
    totals, edges = [], []  # by entry; edges: -inf, the first 3 cumulative weights, +inf
    for entry, i in registers.items():
        state, last = states[i], states[i].num_qubits - 1
        bell_register[entry] = i
        total, cumulative, _ = state.bell.get((0, last)) or qsim._bell_memo(state, 0, last)
        totals.append([total])
        edges.append([-np.inf, *cumulative[:3], np.inf])
    bell_k[list(registers)] = _least_draws(np.array(edges), np.array(totals))
    table = Table(
        tuple(states), z_k, z_post.reshape(-1), bell_register.reshape(size, 3, 3), bell_k.reshape(-1)
    )
    for column in table[1:]:
        column.flags.writeable = False
    return table


def _least_k(p: float) -> int:
    """The least k = w >> 11 whose `random()` draw k * 2**-53 is at least
    p, for p in [0, 1]: u < p exactly when k < this bound. Scaling by a
    power of two is exact, so the ceiling of p * 2**53 is."""
    return math.ceil(p * 2**53)


def _least_draws(edges, total):
    """Each least k in [0, 2**53] whose draw fl(k * 2**-53 * total) reaches
    its edge, 2**53 for none, by bisection: float products are monotone."""
    low, high = np.zeros(edges.shape, np.int64), np.full(edges.shape, 1 << 53)
    for _ in range(54):
        mid = (low + high) >> 1
        reached = mid * 2.0**-53 * total >= edges
        high = np.where(reached, mid, high)
        low = np.where(reached, low, mid + 1)
    return high.astype(np.uint64)


class Lanes(NamedTuple):
    """Each lane's `TrialReport` fields, as arrays over the lanes: int8
    codes, bools and int32 counts, so a 1024-lane chunk's take 27 KiB."""

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


def _key_words(spec) -> int:
    """The words of a trial's key and secret bits, a half-word each."""
    return (spec.drawn_blocks() * spec.secret_bits + 1) // 2


def _play_words(spec) -> int:
    """A proven worst case of the words one trial's play reads: no round
    draws more than its pair's `Shapes.halves` half-words (a `random()` is
    2, an `integers` draw 1), and h half-word draws read at most ceil(h / 2)
    words, however they interleave."""
    halves = _round_shapes(spec.attack, spec.protocol == "improved").halves
    return -(-spec.num_rounds() * halves // 2)


def trial_words(spec) -> int:
    """A proven worst case of the raw words one trial reads, unequal-mode
    redraws of y aside: its key and secret bits, a half-word each; its play,
    as the round walk counts it (`_play_words`); TP's pass, one word per
    case-1 round and per SIFT qubit, so at most 2 a round; and an insider's
    measurement of each of Alice's held returns, at most 1 a round, which
    `measure_returns` counts and skips. It is the width of a lane's row."""
    attack = ATTACKS[spec.attack]
    later = (2 + (attack.insider and attack.swap_back)) * spec.num_rounds()
    return _key_words(spec) + _play_words(spec) + later


# -- seeding ---------------------------------------------------------------------

_LOW32 = 0xFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# 0-d arrays, which a ufunc takes in a third of a Python int's time
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_OTHER_ROWS = [np.array([dst for dst in range(_POOL_SIZE) if dst != src]) for src in range(_POOL_SIZE)]

# PCG64's 128-bit LCG multiplier; as 0-d uint64 arrays, its (high, low)
# limbs and the low one's 32-bit halves, and `_mul128`'s shifts and mask
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HIGH, _MULT_LOW, _MULT_0, _MULT_1, _ONE, _HALF, _LAST, _MASK = (np.array(c, np.uint64) for c in (
    _PCG_MULT >> 64, _PCG_MULT & 2**64 - 1, _PCG_MULT & _LOW32, _PCG_MULT >> 32 & _LOW32, 1, 32, 63, _LOW32))
_THREAD = threading.local()  # each thread's PCG64 (`_pcg64_reader`)


@cache
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """SeedSequence's running hash constant before each of its first `steps`
    hash steps and after the last, as a read-only uint32 column."""
    const = [init]
    for _ in range(steps):
        const.append(const[-1] * mult & _LOW32)
    column = np.array(const, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(value, const, step: int, count: int):
    """Hash steps `step` to `step + count - 1` of `value`'s rows, in turn."""
    value = value ^ const[step : step + count]
    value *= const[step + 1 : step + count + 1]
    value ^= value >> _XSHIFT
    return value


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _words32(value: int) -> list[np.uint32]:
    """`value`'s 32-bit words, low first, as SeedSequence coerces an int."""
    return [np.uint32(value >> shift & _LOW32) for shift in range(0, max(value.bit_length(), 1), 32)]


def pcg64_states(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64's state and inc for ``SeedSequence([seed, i])``, i from `first`
    to `first + count - 1`, which must share their bits above the low 32:
    a (count x 4) uint64 array of (state low, state high, inc low, inc
    high), 75 us warm for 8 indices and 0.14 ms for 1024 (timeit)."""
    high = first >> 32
    if first < 0 or (first + count - 1) >> 32 != high:
        raise ValueError("trial indices must be non-negative and share their high words")
    # The entropy words, as SeedSequence coerces [seed, i]: seed's 32-bit
    # words, least significant first, then i's.
    words = _words32(seed)
    words.append(np.arange(first & _LOW32, (first & _LOW32) + count, dtype=np.uint32))
    if high:
        words += _words32(high)

    # The pool as rows of lanes. numpy's mixing loop never changes a source's
    # own row while it mixes it into the other three, so each source is one
    # hash over three successive constants, and each extra word one over four.
    const = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(len(words), _POOL_SIZE))
    pool = np.zeros((_POOL_SIZE, count), np.uint32)
    for row, word in enumerate(words[:_POOL_SIZE]):
        pool[row] = word
    pool = _hash(pool, const, 0, _POOL_SIZE)
    for src, step in enumerate(range(_POOL_SIZE, _POOL_SIZE**2, _POOL_SIZE - 1)):
        others = _OTHER_ROWS[src]  # in numpy's order
        pool[others] = _mix(pool[others], _hash(pool[src], const, step, _POOL_SIZE - 1))
    for at, word in enumerate(words[_POOL_SIZE:], _POOL_SIZE):
        pool = _mix(pool, _hash(word, const, _POOL_SIZE * at, _POOL_SIZE))

    # generate_state(4, uint64), of rows 0 to 3 twice: eight uint32 outputs,
    # paired low word first, give PCG64's seed and stream, high word first.
    out = _hash(np.concatenate((pool, pool)), _hash_constants(_INIT_B, _MULT_B, 8), 0, 8)
    out = out.astype(np.uint64).reshape(4, 2, count)
    seed_high, seed_low, inc_high, inc_low = out[:, 0] | out[:, 1] << _HALF
    # PCG64's seeding, mod 2**128 on (high, low) limbs: inc from the stream,
    # then two LCG steps around adding the seed to the state.
    inc = (inc_high << _ONE | inc_low >> _LAST, inc_low << _ONE | _ONE)
    state = _add128(_mul128(_add128(inc, (seed_high, seed_low))), inc)
    return np.stack((state[1], state[0], inc[1], inc[0]), axis=1)


def _add128(a, b):
    """a + b mod 2**128, each a (high, low) pair of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _mul128(a):
    """a * PCG64's multiplier mod 2**128: the full 128-bit product of the low
    limbs, from 32-bit halves, plus the cross products in the high limb."""
    a0, a1 = a[1] & _MASK, a[1] >> _HALF
    p00, p01, p10, p11 = a0 * _MULT_0, a0 * _MULT_1, a1 * _MULT_0, a1 * _MULT_1
    mid = (p00 >> _HALF) + (p01 & _MASK) + (p10 & _MASK)
    low = (p00 & _MASK) | mid << _HALF
    high = p11 + (p01 >> _HALF) + (p10 >> _HALF) + (mid >> _HALF)
    return high + a[1] * _MULT_HIGH + a[0] * _MULT_LOW, low


def _pcg64_reader(limbs):
    """`read(lanes, starts, width)`: `width` raw words of each lane's PCG64,
    from word `start` of its stream on, as (lanes x width); `limbs` holds
    each lane's state and inc as `pcg64_states` gives them. Each thread keeps
    its own PCG64 of the class in use: 20-24 us a chunk in an experiment, not
    the 150-210 us of building one a chunk."""
    pcg64 = np.random.PCG64
    kept = getattr(_THREAD, "pcg64", None)
    if kept is None or kept[0] is not pcg64:
        source = pcg64(0)
        # Each lane writes its limbs straight into the four uint64 words that
        # hold the state and inc, which the first field of the struct at
        # `state_address` points at; numpy's state-dict setter would take
        # 2.9-3.7 us a lane with its read at L=1. numpy does not document
        # their order (it differs without 128-bit integers), so a known state
        # set through that setter finds it, and leaves no buffered half-word;
        # a layout that is not a permutation of the known limbs raises, unkept,
        # before any word is read.
        known = [1, 2, 3, 4]  # in `pcg64_states` order
        state = {"state": known[1] << 64 | known[0], "inc": known[3] << 64 | known[2]}
        source.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        words = ctypes.c_void_p.from_address(source.ctypes.state_address).value
        memory = np.frombuffer((ctypes.c_uint64 * 4).from_address(words), dtype=np.uint64)
        order = memory.tolist()
        if sorted(order) != known:
            raise RuntimeError(f"unknown PCG64 state layout: read {order} back for limbs {known}")
        kept = _THREAD.pcg64 = pcg64, source, memory, [known.index(limb) for limb in order]
    _, source, memory, columns = kept
    limbs = limbs[:, columns]

    def read(lanes, starts, width: int) -> np.ndarray:
        rows = np.empty((len(lanes), width), dtype="<u8")
        pieces = [
            (slice(at, at + SLICE_WORDS), min(SLICE_WORDS, width - at)) for at in range(0, width, SLICE_WORDS)
        ]
        for row, lane, start in zip(rows, limbs[lanes], np.asarray(starts).tolist()):
            memory[...] = lane
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
    trap (improved) or filler (jiang) bit. It is the one description of a
    round's draw order, and runs at table build (`_round_shapes`), which the
    word budget and the cursor step's window of codes are read from too.
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


class Shapes(NamedTuple):
    """Where a round's draws fall, by its key, and how it steps a lane's
    cursor, by its window of codes (see `_round_shapes`): word offsets from
    the round's word, half offsets from twice it."""

    alice: np.ndarray  # [buffered]: Alice's choice word
    bob: np.ndarray  # [key & 7]: Bob's choice word
    legs: list  # each forward leg's draw, as `_walk_round` gives it
    sides: list  # each side's (measured word or None, bit half, drawn)
    left: np.ndarray  # the half the round leaves buffered, -1 for none
    step: np.ndarray  # the round's node step
    halves: int  # the most half-words a key's round draws
    skip: int  # words a round reads before its first code, at the fewest
    window: int  # words whose codes a window holds, from `skip` to Bob's last code word
    # [codes]: a byte for each of a word's two nodes, buffered 0 in the low
    # byte and 1 in the high: improved, the node's step; jiang, its entry
    pair: np.ndarray
    # jiang, by entry | Alice's and Bob's filler bits << 2 * window + 1: the
    # node's step, and whether Alice (row 0) and Bob (row 1) SIFT
    entry_step: np.ndarray | None
    sifts: np.ndarray | None


@cache
def _round_shapes(attack: str, improved: bool) -> Shapes:
    """`Shapes` of a (protocol, attack) pair. From a round's cursor, where
    each draw falls depends only on its key, five bits: whether a half-word
    is buffered (1); Alice's choice code (2) and her next bit (4), the
    detect code of the word after her choice word (improved) or whether
    she draws a filler bit (jiang); Bob's choice code (8) and his next bit
    (16). A next bit without its choice code changes nothing, so the 32
    keys have 18 shapes. Built on first use, by one `_walk_round` over the
    keys, whose codes and filler bits it returns in call order, then the
    cursor step's tables from its rows (`_cursor_tables`). A cursor at
    word w with bit b buffered has drawn 2w - b half-words."""
    key = np.arange(32)
    bits = iter((key >> shift & 1).astype(bool) for shift in range(1, 5))
    read = []  # the word of each code, in call order

    def code(q, detect):
        read.append(q)
        return next(bits)

    _, legs, sides, p, hb = _walk_round(
        ATTACKS[attack], improved, 0 * key, (key & 1) - 1, code, lambda side, sift: sift & next(bits)
    )
    alice, bob = read[0], read[len(read) // 2]
    assert (alice == alice[key & 1]).all() and (bob == bob[key & 7]).all(), "a choice word moved"
    step = 2 * p + (hb >= 0) - (key & 1)
    halves = int((2 * p - (hb >= 0) + (key & 1)).max())
    return Shapes(
        alice[:2], bob[:8], legs, [side[2:] for side in sides], hb, step, halves,
        *_cursor_tables(alice, bob, step, improved),
    )


def _cursor_tables(alice, bob, step, improved: bool):
    """The cursor step's fields of `Shapes`, `skip` to `sifts`, from a
    pair's choice words and per-key steps. A lane's cursor is the node
    ``2 * word + buffered``, and its round steps it by twice the words the
    round reads plus the change in its buffered bit. The step depends on a
    window of codes: the detect and choice codes of the `window` words from
    `skip` words past the cursor on, two bits a word from bit 0, the detect
    code below the choice code and held inverted (u >= p_detect), so that
    both are `_at_least` bits. A round reads no code before Alice's choice,
    and no detect code before a choice code, so never bit 0. A jiang entry
    is ``codes | buffered << 2 * window``; its step also depends on whether
    Alice and Bob draw filler bits. A window's step is the step of its key."""
    skip = int(alice.min())  # with a half-word buffered
    # The words a round may read codes of, from `skip` on: Alice's choice
    # word comes a word later in some rows when no half-word is buffered,
    # and Bob's last detect (improved) or choice (jiang) word ends them.
    window = int(bob.max()) + improved + 1 - skip
    shift = 2 * window
    # codes | buffered << shift, then (jiang) Alice's and Bob's filler bits
    entry = np.arange(1 << shift + (1 if improved else 3), dtype=np.int32)
    key = entry >> shift & 1

    def code(q, detect):
        bit = 2 * (q - skip) + 1 - detect
        assert 0 < bit.min() and bit.max() < shift, "a round reads past its window of codes"
        return (entry >> bit & 1) ^ detect

    for side, choice in enumerate((alice, bob)):
        at = choice[key]
        later = code(at + 1, 1) if improved else entry >> shift + 1 + side & 1
        key = key | code(at, 0) << 1 + 2 * side | later << 2 + 2 * side
    step = step[key]
    assert 0 < step.min() and step.max() < 256, "a round's step outgrows its byte"
    if improved:
        step = step.astype("<u2")
        return skip, window, step[: 1 << shift] | step[1 << shift :] << 8, None, None
    codes = np.arange(1 << shift, dtype="<u2")
    sifts = np.array([key >> 1 & 1, key >> 3 & 1], np.uint8)
    return skip, window, codes | (codes | 1 << shift) << 8, step.astype(np.intp), sifts


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
    return tuple(_least_k(p) << 11 for p in (spec.p_ctrl, spec.p_detect))


def _draws(flat_words, index):
    """k = w >> 11 of the words at flat `index`: `random()` is k * 2**-53."""
    k = flat_words.take(index)
    k >>= 11
    return k


def _measure_z(table, state, position, k):
    """Outcome and post-state of a Z measurement of draw k."""
    outcome = k < table.z_k[position].take(state)
    return outcome, table.z_post.take((state * _Z_SLOTS + position) * 2 + outcome)


def _slices(rounds: int, count: int):
    """Slices of the rounds, each of about SLICE_CELLS lane-rounds."""
    step = max(1, SLICE_CELLS // count)
    return [slice(r, r + step) for r in range(0, rounds, step)]


# -- the stages ----------------------------------------------------------------


class Keys(NamedTuple):
    """Each lane's secret bits, (lanes x L); jiang's calculate bits K ^ RA ^ x
    and K ^ RB ^ y, (2 x lanes x L), None for improved; and where its play
    starts: its next word in the flat row matrix, and the index of its
    buffered half-word (-1 for none)."""

    x: np.ndarray
    y: np.ndarray
    encoded: np.ndarray | None
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
    """TP's measurements: whether its Z of each side's SIFT return differs
    from `Play.sent`, (2 x rounds x lanes), and its Bell errors of the
    double-CTRL rounds, (rounds x lanes)."""

    flip: np.ndarray
    wrong: np.ndarray


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
    encoded = None if spec.protocol == "improved" else np.stack((k ^ ra ^ x, k ^ rb ^ y))
    return Keys(x, y, encoded, row_start + (consumed + 1) // 2, half)


def advance_cursors(spec, words, keys: Keys):
    """The cursor step: each lane's next word at the start of every round
    and after the last, (rounds + 1 x lanes), and whether it has a half-word
    buffered at the start of every round, (rounds x lanes). A lane's cursor
    is a node, ``2 * word + buffered``. Each word's window of codes is
    looked up once in `Shapes.pair`, which gives a byte for each of the
    word's two nodes, so a node indexes the bytes directly: improved, its
    step; jiang, its entry, whose step (`Shapes.entry_step`) also depends on
    each side's filler bits. A chunk of fewer than `NARROW_LANES` lanes
    walks one lane at a time (`_walk_lanes`); a wider one steps every lane
    a round at a time, in numpy."""
    improved = spec.protocol == "improved"
    shapes = _round_shapes(spec.attack, improved)
    skip, window = shapes.skip, shapes.window
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
        np.take(shapes.pair, codes[: 1 - window], out=by_node[at : at + SLICE_WORDS], mode="clip")
    by_node = by_node.view(np.uint8)

    node = np.empty((rounds + 1, count), np.int64)
    node[0] = 2 * keys.word + (keys.half >= 0)
    if count < NARROW_LANES:
        _walk_lanes(node, by_node, shapes, L, improved)
    elif improved:
        for now, after in zip(node[:-1], node[1:]):
            np.add(now, by_node[now], out=after)
    else:
        alice = 2 << 2 * window  # Alice's filler bit; Bob's is twice it

        def walk(first, last, fills):
            table = shapes.entry_step[fills : fills + alice]
            for now, after in zip(node[first:last], node[first + 1 : last + 1]):
                np.add(now, table.take(by_node[now]), out=after)

        # A side makes at most one SIFT a round, so none draws a filler bit
        # before round L. Its SIFTs count from round L - 1 on, until both
        # sides of every lane draw them: `made` holds each side's SIFTs so
        # far, Bob's offset by rounds + 1, so that both index `filled`.
        walk(0, L - 1, 0)
        made = shapes.sifts.take(by_node[node[: L - 1]], axis=1).sum(axis=1, dtype=np.intp)
        made += [[0], [rounds + 1]]
        filled = np.where(np.arange(rounds + 1) >= L, [[alice], [2 * alice]], 0).reshape(-1)
        fill = np.zeros(count, np.intp)
        r = L - 1
        while r < rounds:
            entry = by_node[node[r]] | fill
            np.add(node[r], shapes.entry_step.take(entry), out=node[r + 1])
            made += shapes.sifts.take(entry, axis=1)
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


def _walk_lanes(node, by_node, shapes: Shapes, L: int, improved: bool):
    """`advance_cursors`' walk of a narrow chunk, one lane at a time in
    Python: each round is ``n += step[n]``, with the step read from a view
    of the node bytes, and a lane's nodes go into one reused column before
    they are copied into `node`. A jiang lane counts each side's SIFTs by
    the entries it steps through, and looks its step up in
    `Shapes.entry_step` by whether each side draws filler bits, until both
    do; from then on every entry's step is in that table's last quarter."""
    rounds = len(node) - 1
    column = array("q", bytes(8 * (rounds + 1)))
    byte = memoryview(by_node)
    if not improved:
        alice = 2 << 2 * shapes.window  # Alice's filler bit; Bob's is twice it
        both = 3 * alice
        step = shapes.entry_step.tolist()
        filled = step[both:]
        sift_a, sift_b = shapes.sifts.tolist()
    for lane, n in enumerate(node[0].tolist()):
        if improved:
            for r in range(rounds):
                column[r] = n
                n += byte[n]
        else:
            r = made_a = made_b = fill = 0
            while fill != both and r < rounds:
                column[r] = n
                entry = byte[n] | fill
                n += step[entry]
                made_a += sift_a[entry]
                made_b += sift_b[entry]
                fill = (alice if made_a >= L else 0) | (2 * alice if made_b >= L else 0)
                r += 1
            for r in range(r, rounds):
                column[r] = n
                n += filled[byte[n]]
        column[rounds] = n
        node[:, lane] = column


def play_rounds(spec, words, word, buffered, keys: Keys) -> Play:
    """The round program, a slice of rounds at a time: each round's key,
    from its buffered bit and the codes of the words it reads, gives every
    draw's position from the round's word (`_round_shapes`); then the draws
    and the quantum updates, as lookups in the transition table."""
    table = transition_table()
    attack = ATTACKS[spec.attack]
    improved = spec.protocol == "improved"
    shapes = _round_shapes(spec.attack, improved)
    rounds, count = buffered.shape
    L = spec.secret_bits
    flat_words, flat_halves = words.reshape(-1), words.view("<u4").reshape(-1)
    ctrl, detect = _code_bounds(spec)
    swapped = [attack.swap_back and leg in attack.forged for leg in _LEGS]
    encoded = None if improved else keys.encoded.reshape(2, -1)
    lane_bits = np.arange(count) * L
    play = Play(
        np.empty((rounds, count), np.int8),
        np.empty((2, rounds, count), bool),
        np.zeros((2, rounds, count), bool),
        np.empty((2, rounds, count), np.int8),
        np.full((2, rounds, count), -1, np.int8),
        np.empty((rounds, count), np.int16),
    )
    made = np.zeros((2, count), np.int64)  # jiang: each side's SIFTs before the slice
    upto = [None, None]  # jiang: each side's SIFTs up to each round of the slice

    def positions(rows, left):
        """Where the draws of a slice of rounds fall, as `_walk_round` gives
        them, and the half its last round leaves buffered; `left` is the
        half the round before the slice left. Its temporaries go with it,
        before the draws make their own."""
        at, b = word[:-1][rows], buffered[rows]
        key = b.astype(np.intp)
        sides = []
        for side, choice in enumerate((shapes.alice, shapes.bob)):
            q = at + choice.take(key)
            sift = _at_least(flat_words.take(q), ctrl)
            if improved:
                q += 1
                later = ~_at_least(flat_words.take(q), detect)
                sides.append([sift, sift & later])
            else:
                upto[side] = made[side] + np.cumsum(sift, axis=0)
                made[side] = upto[side][-1]
                later = upto[side] > L
                sides.append([sift, None])
            key |= sift << 1 + 2 * side
            key |= later << 2 + 2 * side
        half = 2 * at
        lefts = half + shapes.left.take(key)
        # A kind that finds a half buffered reads the one the round before left.
        kind = np.where(b, np.concatenate([left[None], lefts[:-1]]), half)
        legs = [
            None if offset is None else (half if leg in attack.forged else at) + offset.take(key)
            for leg, offset in zip(_LEGS, shapes.legs)
        ]
        for leg, side, (measured, bit, drawn) in zip(_LEGS, sides, shapes.sides):
            measured = None if measured is None or leg in attack.forged else at + measured.take(key)
            side += [measured, half + bit.take(key), drawn.take(key)]
        return kind, legs, sides, lefts[-1].copy()

    def play_slice(rows, left):
        """The draws of a slice of rounds; returns the half its last round
        leaves buffered. Its arrays go with it, before the next slice's."""
        kind, legs, sides, left = positions(rows, left)
        play.kinds[rows] = kinds = flat_halves.take(kind) >> 30
        r0 = kinds + 2
        fake = [None, None]
        for s, (leg, index) in enumerate(zip(_LEGS, legs)):
            if leg in attack.forged:
                fake[s] = flat_halves.take(index) >> 31
            elif index is not None:
                r0 = _measure_z(table, r0, s, _draws(flat_words, index))[1]
        for s, (sift, is_detect, measured, bit, drawn) in enumerate(sides):
            bits = flat_halves.take(bit) >> 31
            if improved:
                if fake[s] is None:
                    out, post = _measure_z(table, r0, s, _draws(flat_words, measured))
                    r0 = np.where(sift & ~is_detect, post, r0)
                else:  # a forgery is |0> or |1>, so its Z is its bit
                    out = fake[s]
                play.detect[s, rows] = is_detect
            else:
                out = encoded[s].take(lane_bits + np.minimum(upto[s] - sift, L - 1))
            play.sift[s, rows] = sift
            play.sent[s, rows] = sent = np.where(drawn, bits, out)
            if not swapped[s]:
                play.back[s, rows] = np.where(sift, sent, -1 if fake[s] is None else fake[s])
        play.pair[rows] = r0
        return left

    left = keys.half  # the half-word each lane's next round may find buffered
    for rows in _slices(rounds, count):
        left = play_slice(rows, left)
    return play


def measure_returns(spec, words, play: Play, end) -> Returns:
    """TP's pass, a slice of rounds at a time: one word per case-1 round
    and per SIFT qubit. Each lane reads them in its row from where its play
    ended (`end`, its next word after the last round), past an insider's
    words: one per SIFT round of Alice's, whose Z measurement of her
    outgoing qubit the scalar engine draws. That qubit is |0> or |1>, so the
    outcome is the bit she sent whatever the word, and the insider's words
    are skipped unread. So too a return other than the pair's half is the
    |0> or |1> sent and never differs from it (`Returns.flip`): TP
    Z-measures only the pair's register."""
    table = transition_table()
    attack = ATTACKS[spec.attack]
    count, width = words.shape
    flat_words = words.reshape(-1)
    sift = play.sift
    tp = len(sift[0]) + (sift[0] & sift[1]).sum(axis=0)  # 1 draw a round, 2 if both SIFT
    pos = end
    if attack.insider and attack.swap_back:
        pos = pos + sift[0].sum(axis=0)
    if (pos - np.arange(count) * width + tp > trial_words(spec)).any():
        raise AssertionError("a lane read past its row of words")
    shape = sift.shape[1:]
    returns = Returns(np.empty(sift.shape, bool), np.empty(shape, bool))

    def tp_pass(rows, start):
        """TP's measurements of a slice of rounds, whose first round reads
        each lane's word `start` on; returns each lane's next word after
        it. Its temporaries go with it, before the next slice makes its own."""
        a, b = sift[0, rows], sift[1, rows]
        case1 = ~(a | b)
        draws = np.add(a & b, 1, dtype=np.int64)  # 1 draw a round, 2 if both SIFT
        index = np.cumsum(draws, axis=0)
        index -= draws
        index += start
        after = index[-1] + draws[-1]
        k_a = _draws(flat_words, index)  # Alice's Z, or the Bell measurement
        index += a
        back, pair, sent = play.back[:, rows], play.pair[rows], play.sent[:, rows]
        in_pair = back < 0
        out, post = _measure_z(table, pair, 0, k_a)
        returns.flip[0, rows] = in_pair[0] & (out != sent[0])
        r0 = np.where(a & in_pair[0], post, pair)
        out = _draws(flat_words, index) < table.z_k[1].take(r0)
        returns.flip[1, rows] = in_pair[1] & (out != sent[1])
        del index, out  # not held through the Bell check

        # Bell measurements of the double-CTRL rounds. The other cells measure
        # their pair too and are not counted, so the arrays of every slice
        # have its size, which keeps the heap from fragmenting. A cell is
        # wrong when its draw falls outside the bounds of its prepared kind.
        # Its entry is bell_register[pair, 1 + a, 1 + b], flat, where a and b
        # are what each side returns in a case-1 round, and -1 otherwise.
        held = back[0] * 3
        held += back[1]
        held += 4
        held *= case1
        entry = pair * 9
        entry += held
        if (table.bell_register.reshape(-1).take(entry) < 0).any():
            raise ValueError(f"attack {spec.attack!r} merges registers outside the table")
        bound = entry * 5
        bound += play.kinds[rows]
        wrong = k_a < table.bell_k.take(bound)
        bound += 1
        wrong |= k_a >= table.bell_k.take(bound)
        returns.wrong[rows] = wrong & case1
        return after

    for rows in _slices(*shape):
        pos = tp_pass(rows, pos)
    return returns


def check_lanes(spec, keys: Keys, play: Play, returns: Returns) -> Lanes:
    """The checks, Bell then traps then calculates, and each completed
    lane's comparison values.

    TP XORs its two outcomes with the published masks. Jiang's mask is RA,
    and Alice's first L calculates send K ^ RA ^ x; the improved mask is
    K ^ x ^ (the bit sent). Either way Alice's outcome XOR her mask is
    K ^ x ^ flip, and Bob's K ^ y ^ flip, so in both protocols the j-th
    comparison value is x_j ^ y_j ^ (each side's j-th calculate flip)."""
    L = spec.secret_bits
    sift, detect, flip = play.sift, play.detect, returns.flip
    case1 = ~sift[0] & ~sift[1]
    case1_rounds = case1.sum(axis=0, dtype=np.int32)
    case1_errors = returns.wrong.sum(axis=0, dtype=np.int32)
    traps = detect.sum(axis=1, dtype=np.int32)
    bad = (detect & flip).sum(axis=1, dtype=np.int32)
    calc = sift & ~detect
    made = calc.sum(axis=1)

    def fails(errors, checked):
        return (errors > 0) & (errors / np.maximum(checked, 1) > spec.threshold)

    # each lane's first failed check, set last to first
    reason = np.zeros(len(case1_rounds), np.int8)
    reason[(made[0] < L) | (made[1] < L)] = 3
    reason[fails(bad[0], traps[0]) | fails(bad[1], traps[1])] = 2
    reason[fails(case1_errors, case1_rounds)] = 1
    done = reason == 0
    # each completed lane's first L calculate rounds per side, lane by lane
    paired = (calc & (np.cumsum(calc, axis=1, dtype=np.int32) <= L) & done).transpose(0, 2, 1)
    flips = flip.transpose(0, 2, 1)[paired].reshape(2, -1, L)
    r = keys.x[done] ^ keys.y[done] ^ flips[0] ^ flips[1]
    count = len(reason)
    first_diff = np.zeros(count, np.int32)
    first_diff[done] = np.where(r.any(axis=1), r.argmax(axis=1) + 1, 0)
    recovered = np.full(count, -1, np.int8)
    attack = ATTACKS[spec.attack]
    if spec.protocol == "jiang" and attack.insider and attack.swap_back:
        recovered[done] = 1  # the insider's Z of Alice's qubit gives K ^ RA ^ x
    return Lanes(
        reason,
        first_diff,
        done & ((first_diff == 0) == (keys.x == keys.y).all(axis=1)),
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
