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
matrix, as `Draws` serves them: a word cursor, and a buffered half-word
that the next half-word draw takes first. The row holds a proven worst case
of all the words a trial reads (`trial_words`, which also sizes a scalar
trial's first read), so each lane's row is read once, and a lane that would
read past its row raises. `run_chunk` runs these stages, each a function of
arrays:

    1. `seed_and_read`: seed the lanes and read their rows;
    2. `draw_keys`: key and secret bits, one block for every lane, then
       unequal-mode redraws of y for the lanes that need them;
    3. `advance_cursors`: each lane's cursor at the start of every round. A
       round depends on the rounds before it only through the cursor (and,
       in jiang, whether each side has made its L calculates, after which
       its SIFTs draw a filler bit), and which words a round reads depends
       only on that and on each word's choice and detect codes (u >= p_ctrl,
       u < p_detect). So a table, built once by `_walk_round` over every
       window of codes, gives the cursor's step, and the cursors advance by
       one lookup a round;
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

import math
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
# Lane-rounds that the round program and TP's pass take at once, so their
# temporaries stay below 1 MiB however many rounds a chunk plays.
SLICE_CELLS = 1 << 11

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


def _play_words(spec) -> int:
    """A proven worst case of the words one trial's play reads."""
    half_words = _half_words_per_round(ATTACKS[spec.attack], spec.protocol == "improved")
    return -(-spec.num_rounds() * half_words // 2)


def trial_words(spec) -> int:
    """A proven worst case of the raw words one trial reads, unequal-mode
    redraws of y aside: its key and secret bits, a half-word each; its play
    (`_half_words_per_round`); TP's pass, one word per case-1 round and per
    SIFT qubit, so at most 2 a round; and an insider's measurement of each
    of Alice's held returns, at most 1 a round. Both engines size a trial's
    first read with it."""
    attack = ATTACKS[spec.attack]
    later = (2 + (attack.insider and attack.swap_back)) * spec.num_rounds()
    return (spec.drawn_blocks() * spec.secret_bits + 1) // 2 + _play_words(spec) + later


def _pcg64_reader(states):
    """`read(lanes, starts, width)`: `width` raw words of each lane's PCG64
    (state, inc), from word `start` of its stream on, as (lanes x width)."""
    source = np.random.PCG64(0)
    # One state dict, refilled per lane: building a fresh one costs more
    # than the setter itself.
    fields = {"state": 0, "inc": 0}
    setting = {"bit_generator": "PCG64", "state": fields, "has_uint32": 0, "uinteger": 0}

    def read(lanes, starts, width: int) -> np.ndarray:
        rows = np.empty((len(lanes), width), dtype="<u8")
        for row, lane, start in zip(rows, lanes, starts):
            fields["state"], fields["inc"] = states[lane]
            source.state = setting
            if start:
                source.advance(int(start))
            row[:] = source.random_raw(width)
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
    """A round's cursor step, by the entry it starts from (see
    `_round_steps`)."""

    skip: int  # words a round reads before its first code, at the fewest
    window: int  # words whose codes an entry holds
    advance: np.ndarray  # words the round reads
    key: np.ndarray  # the next entry's buffered bit: whether a half-word is left
    sifts: np.ndarray  # jiang: whether Alice (row 0) and Bob (row 1) SIFT


@cache
def _round_steps(attack: str, improved: bool) -> Steps:
    """`Steps` of a (protocol, attack) pair, by entry ``codes | buffered <<
    shift | fills << shift + 1``, where ``shift = 2 * window - 1``. `codes`
    packs the choice and detect codes of the `window` words from `skip`
    words past the cursor on: the first one's choice code at bit 0, then
    the detect and choice codes of each next word. A round reads no code
    before Alice's choice, and no detect code before a choice code. `fills`
    (jiang) says whether Alice (bit 0) and Bob (bit 1) draw filler bits.
    Built on first use, by `_walk_round` over every entry."""
    row = ATTACKS[attack]
    skip = (len(row.forged) + 1) // 2 + len(row.measured)  # with a half-word buffered
    # The words a round may read codes of, from `skip` on: Alice's choice
    # word comes a word later in some rows when no half-word is buffered,
    # and Bob's detect (improved) or choice (jiang) word ends them.
    window = 6 if improved else 3
    shift = 2 * window - 1
    entry = np.arange(1 << shift + (1 if improved else 3), dtype=np.int32)

    def code(q, detect):
        bit = 2 * (q - skip) - detect
        assert 0 <= bit.min() and bit.max() < shift, "a round reads past its window of codes"
        return (entry >> bit & 1).astype(bool)

    def filler(side, sift):
        return sift & (entry >> shift + 1 + side & 1).astype(bool)

    *_, sides, p, hb = _walk_round(row, improved, np.zeros_like(entry), (entry >> shift & 1) - 1, code, filler)
    sifts = None if improved else np.array([sides[0][0], sides[1][0]], np.uint8)
    return Steps(skip, window, p.astype(np.uint8), ((hb >= 0) << shift).astype(np.uint16), sifts)


def _at_least(words, bound: int):
    """words >= bound, for a bound up to 2**64."""
    return words >= bound if bound < 1 << 64 else np.zeros(words.shape, bool)


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
    """Each lane's row of words, (lanes x words), and the reader, which
    `draw_keys` calls again for unequal-mode redraws. `read(lanes, starts,
    width)` supplies raw words as `_pcg64_reader` does; by default, those of
    the trials' own streams, seeded here."""
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
    bits_end = (drawn + 1) // 2  # redraws must end here too: `trial_words` counts none
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
    buffered at the start of every round, (rounds x lanes). Each word's
    codes are packed into a window of the codes from it on, over the part of
    the row that play may read, so a round's step is one lookup in
    `_round_steps`."""
    improved = spec.protocol == "improved"
    steps = _round_steps(spec.attack, improved)
    skip, window, shift = steps.skip, steps.window, 2 * steps.window - 1
    count, width = words.shape
    L, rounds = spec.secret_bits, spec.num_rounds()
    play_end = (spec.drawn_blocks() * L + 1) // 2 + _play_words(spec)
    ctrl, detect = _code_bounds(spec)
    # each word's choice code above its detect code, then windows of them
    # by doubling: packed[:, c] holds the codes of words c to c + span - 1
    end = play_end + skip + window - 1
    cols = min(width, end)
    packed = np.zeros((count, end), np.uint16)
    packed[:, :cols] = _at_least(words[:, :cols], ctrl)
    packed <<= 1
    packed[:, :cols] |= ~_at_least(words[:, :cols], detect)
    span = 1
    while span < window:
        more = min(span, window - span)
        later = packed[:, span:] & (1 << 2 * more) - 1
        later <<= 2 * span
        packed[:, :-span] |= later
        del later
        span += more
    packed >>= 1  # the first word's detect code
    windows = np.zeros((count, width), np.uint16)
    windows[:, :play_end] = packed[:, skip : skip + play_end]
    del packed
    windows = windows.reshape(-1)

    word = np.empty((rounds + 1, count), np.int64)
    word[0] = keys.word
    entries = np.empty((rounds, count), np.int64)
    key = np.where(keys.half >= 0, 1 << shift, 0)
    if improved:
        for now, after, entry in zip(word[:-1], word[1:], entries):
            np.bitwise_or(windows[now], key, out=entry)
            np.add(now, steps.advance[entry], out=after)
            key = steps.key[entry]
    else:
        made = np.zeros((2, count), np.int64)  # each side's SIFTs
        fill_a, fill_b = (np.where(np.arange(rounds + 1) >= L, 2 << shift + side, 0) for side in (0, 1))
        for now, after, entry in zip(word[:-1], word[1:], entries):
            np.bitwise_or(windows[now], key, out=entry)
            np.add(now, steps.advance[entry], out=after)
            made += steps.sifts[:, entry]
            key = steps.key[entry] | fill_a[made[0]] | fill_b[made[1]]
    del windows
    if (word[-1] - np.arange(count) * width > play_end).any():
        raise AssertionError("a lane read past its row of words")
    return word, (entries & 1 << shift).astype(bool)


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
