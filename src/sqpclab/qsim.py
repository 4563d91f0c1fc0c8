"""Exact state-vector simulator for small qubit registers.

Supports exactly what two-party comparison protocols need: Bell-pair and
Z-basis qubit preparation, register merging (tensor product), partial
Z-basis measurement, and Bell-basis measurement of an arbitrary qubit pair.

Conventions:
    - Amplitude index bit k (most significant first) is register qubit k,
      so a 2-qubit register orders its amplitudes as |00>, |01>, |10>, |11>.
    - Amplitudes are real (float64): the prepared states and both
      measurement bases are real, so every state reached is too.
    - All measurement randomness comes from a single generator owned by
      the Simulator; each projection consumes exactly one `random()` draw.
    - Measured qubits stay in their register, collapsed. Custody of qubits
      is the caller's bookkeeping; handles stay valid across merges.
    - A Simulator keeps every register it made until it is discarded, one
      per trial: any handle, measured or not, may be measured again (TP
      measures returned qubits, an insider attack measures the halves it
      held back), so no register is ever known to be dead.
    - A register holds at most MAX_REGISTER_QUBITS qubits; a merge past
      that raises CapacityExceeded.
    - Both measurements are one projective measurement onto the rows of a
      basis matrix: Z on one qubit, Bell on an ordered pair. A prepared
      state is a row of its basis.
    - Registers point at interned, read-only states shared by every
      Simulator. The state-vector code computes each transition of a state
      (a measurement at a position or position pair, with every outcome's
      weight and post-state, or a merge with another state) once and
      memoizes it on the state; the intern table is emptied whenever it
      would exceed MAX_INTERNED_STATES. Prepared states are found by bit or
      Bell index, not by key.
"""
from __future__ import annotations

from enum import Enum
from itertools import accumulate
from typing import NamedTuple

import numpy as np

MAX_REGISTER_QUBITS = 4

# Bound of the module-level intern table; reaching it empties the table.
MAX_INTERNED_STATES = 4096

_SQRT2_INV = 1.0 / np.sqrt(2.0)


class ValidationError(ValueError):
    """A configuration value is out of range or malformed."""


def as_generator(seed):
    """`seed` itself if it has `integers` and `random`, such as a numpy
    Generator, else ``np.random.default_rng(seed)`` for a seed such as an
    int or None, raising ValidationError for one `default_rng` rejects."""
    if hasattr(seed, "integers") and hasattr(seed, "random"):
        return seed
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValidationError(
            f"seed must be a nonnegative integer, None or a generator, got {seed!r}"
        ) from None


class QsimError(Exception):
    """Base error for register operations."""


class InvalidHandle(QsimError):
    """Handle does not address a qubit of this simulator."""


class CapacityExceeded(QsimError):
    """Merge would exceed the register size limit."""


class SameRegister(QsimError):
    """Merge of a register with itself."""


class BellKind(Enum):
    """The four Bell states, in the fixed measurement/selection order."""

    PHI_PLUS = 0   # (|00> + |11>)/sqrt(2)
    PHI_MINUS = 1  # (|00> - |11>)/sqrt(2)
    PSI_PLUS = 2   # (|01> + |10>)/sqrt(2)
    PSI_MINUS = 3  # (|01> - |10>)/sqrt(2)

    @property
    def parity(self) -> int:
        """XOR of Z outcomes on the two halves: 0 for Phi, 1 for Psi."""
        return 0 if self in (BellKind.PHI_PLUS, BellKind.PHI_MINUS) else 1


# Rows are the bras of a measurement's outcomes, in outcome order: Z over
# |0>, |1>, and the Bell states over the |ab> basis (00, 01, 10, 11) in
# BellKind order. Row k is also the state prepared for outcome k.
_Z_BASIS = np.eye(2)
_BELL_BASIS = np.array(
    [
        (_SQRT2_INV, 0.0, 0.0, _SQRT2_INV),
        (_SQRT2_INV, 0.0, 0.0, -_SQRT2_INV),
        (0.0, _SQRT2_INV, _SQRT2_INV, 0.0),
        (0.0, _SQRT2_INV, -_SQRT2_INV, 0.0),
    ]
)

_BELL_KINDS = tuple(BellKind)


class QubitHandle(NamedTuple):
    """Address of one qubit: register id plus position at creation time."""

    register_id: int
    index: int


class _State:
    """Interned, read-only register state plus its memoized transitions.

    Every memo entry is a function of the amplitudes alone, so one state
    serves every register and every Simulator that reaches it.
    """

    __slots__ = ("num_qubits", "amplitudes", "key", "z", "bell", "kron")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray, key: tuple[int, bytes]):
        amplitudes.flags.writeable = False
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes
        self.key = key
        # pos -> (p1, [post-state per outcome])
        self.z: dict[int, tuple] = {}
        # (pos_a, pos_b) -> (total, cumulative probs, [post-state per BellKind])
        self.bell: dict[tuple[int, int], tuple] = {}
        # key of the appended state -> merged state
        self.kron: dict[tuple[int, bytes], _State] = {}


# Module level on purpose: a Simulator lives for one trial, so a table per
# Simulator would recompute most transitions every trial. Entries are pure
# functions of their key, so what the table holds never changes a result.
_STATES: dict[tuple[int, bytes], _State] = {}


# Interned prepared states: slots 0 and 1 by basis bit, 2 + kind value by
# Bell kind. Filled on first use and emptied with the intern table.
_PREPARED: list[_State | None] = [None] * 6


def _intern(num_qubits: int, amplitudes: np.ndarray) -> _State:
    """The shared state with these amplitudes; norm-checked when new.

    Adding 0.0 turns -0.0 into 0.0, so equal vectors share one state."""
    amplitudes = amplitudes + 0.0
    key = (num_qubits, amplitudes.tobytes())
    state = _STATES.get(key)
    if state is None:
        _check_norm(amplitudes)
        if len(_STATES) >= MAX_INTERNED_STATES:
            _STATES.clear()
            _PREPARED[:] = [None] * len(_PREPARED)
        state = _STATES[key] = _State(num_qubits, amplitudes, key)
    return state


def _check_norm(amplitudes: np.ndarray) -> None:
    norm_sq = float(np.vdot(amplitudes, amplitudes))
    if abs(norm_sq - 1.0) > 1e-9:
        raise QsimError(f"state norm drifted: |psi|^2 = {norm_sq!r}")


def _measure(state: _State, positions: tuple[int, ...], basis: np.ndarray):
    """Projective measurement of the qubits at `positions` onto the rows of
    `basis`: each outcome's weight, and its interned post-state (None for
    an outcome of weight 0)."""
    n = state.num_qubits
    perm = [*positions, *(i for i in range(n) if i not in positions)]
    tensor = state.amplitudes.reshape([2] * n).transpose(perm).reshape(len(basis), -1)
    overlaps = basis @ tensor  # rows: residual vector per outcome
    weights = (overlaps**2).sum(axis=1)
    shape, inverse = [2] * n, np.argsort(perm)
    posts = [
        _intern(n, np.outer(row, res / np.sqrt(w)).reshape(shape).transpose(inverse).reshape(-1))
        if w else None
        for row, res, w in zip(basis, overlaps, weights)
    ]
    return weights, posts


# The memo entries, each computed once per state. `measure_z` and
# `measure_bell` read them, and so does the batched engine's transition table.


def _z_memo(state: _State, pos: int) -> tuple:
    """(p1, [post-state per outcome]) of a Z measurement at `pos`."""
    weights, posts = _measure(state, (pos,), _Z_BASIS)
    s0, s1 = weights.tolist()
    memo = state.z[pos] = (s1 / (s0 + s1), posts)
    return memo


def _bell_memo(state: _State, pos_a: int, pos_b: int) -> tuple:
    """(total, cumulative weights, [post-state per BellKind]) of a Bell
    measurement of the ordered pair (pos_a, pos_b)."""
    weights, posts = _measure(state, (pos_a, pos_b), _BELL_BASIS)
    memo = state.bell[(pos_a, pos_b)] = (
        float(weights.sum()), list(accumulate(weights.tolist())), posts
    )
    return memo


def _kron(state_a: _State, state_b: _State) -> _State:
    """The state of `state_a`'s register with `state_b`'s appended."""
    merged = state_a.kron[state_b.key] = _intern(
        state_a.num_qubits + state_b.num_qubits,
        np.kron(state_a.amplitudes, state_b.amplitudes),
    )
    return merged


class Simulator:
    """Owner of all registers and of the single measurement-outcome stream.

    One Simulator per protocol run; identical seed and operation sequence
    reproduce identical outcomes. `seed` is taken by `as_generator`.
    """

    def __init__(self, seed: int | np.random.Generator | None = None):
        self._rng = as_generator(seed)
        self._registers: dict[int, _State] = {}
        # old register id -> (surviving register id, qubit index offset)
        self._forwards: dict[int, tuple[int, int]] = {}
        self._next_id = 0

    # -- creation ---------------------------------------------------------

    def prepare_basis(self, bit: int) -> QubitHandle:
        """Fresh qubit in |0> or |1>."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        state = _PREPARED[bit]
        if state is None:
            state = _PREPARED[bit] = _intern(1, _Z_BASIS[bit])
        rid = self._next_id
        self._next_id = rid + 1
        self._registers[rid] = state
        return QubitHandle(rid, 0)

    def prepare_bell(self, kind: BellKind) -> tuple[QubitHandle, QubitHandle]:
        """Fresh Bell pair; returns the (first, second) half handles."""
        slot = 2 + kind._value_
        state = _PREPARED[slot]
        if state is None:
            state = _PREPARED[slot] = _intern(2, _BELL_BASIS[kind._value_])
        rid = self._next_id
        self._next_id = rid + 1
        self._registers[rid] = state
        return QubitHandle(rid, 0), QubitHandle(rid, 1)

    # -- structure --------------------------------------------------------

    def merge(self, a: QubitHandle, b: QubitHandle) -> None:
        """Replace the registers of `a` and `b` by their tensor product.

        Qubits of `a`'s register keep their indices; qubits of `b`'s
        register are appended after them. Existing handles stay valid.
        """
        rid_a, state_a, _ = self._resolve(a)
        rid_b, state_b, _ = self._resolve(b)
        if rid_a == rid_b:
            raise SameRegister(f"qubits already share register {rid_a}")
        combined = state_a.num_qubits + state_b.num_qubits
        if combined > MAX_REGISTER_QUBITS:
            raise CapacityExceeded(
                f"merge would create a {combined}-qubit register "
                f"(limit {MAX_REGISTER_QUBITS})"
            )
        self._registers[rid_a] = state_a.kron.get(state_b.key) or _kron(state_a, state_b)
        del self._registers[rid_b]
        self._forwards[rid_b] = (rid_a, state_a.num_qubits)

    # -- measurement ------------------------------------------------------

    def measure_z(self, q: QubitHandle) -> int:
        """Z-basis measurement of one qubit; collapses the register.

        Probabilities are normalized from the two branch weights, so
        measuring an eigenstate (or re-measuring a collapsed qubit) is
        exactly deterministic.
        """
        rid, state, pos = self._resolve(q)
        p1, posts = state.z.get(pos) or _z_memo(state, pos)
        outcome = 1 if self._rng.random() < p1 else 0
        self._registers[rid] = posts[outcome]
        return outcome

    def measure_bell(self, a: QubitHandle, b: QubitHandle) -> BellKind:
        """Bell-basis measurement of the ordered pair (a, b).

        Merges the registers first when the qubits live apart.
        """
        rid, state, pos_a = self._resolve(a)
        rid_b, _, pos_b = self._resolve(b)
        if rid != rid_b:
            self.merge(a, b)
            rid, state, pos_a = self._resolve(a)
            pos_b = self._resolve(b)[2]
        if pos_a == pos_b:
            raise InvalidHandle("Bell measurement needs two distinct qubits")
        total, cumulative, posts = (
            state.bell.get((pos_a, pos_b)) or _bell_memo(state, pos_a, pos_b)
        )
        draw = self._rng.random() * total
        chosen = len(cumulative) - 1
        for k, bound in enumerate(cumulative):
            if draw < bound:
                chosen = k
                break
        self._registers[rid] = posts[chosen]
        return _BELL_KINDS[chosen]

    # -- inspection (tests and diagnostics) -------------------------------

    def amplitudes(self, q: QubitHandle) -> np.ndarray:
        """Copy of the amplitude vector of the register holding `q`."""
        return self._resolve(q)[1].amplitudes.copy()

    def register_size(self, q: QubitHandle) -> int:
        return self._resolve(q)[1].num_qubits

    def qubit_index(self, q: QubitHandle) -> int:
        """Current position of `q` inside its (possibly merged) register."""
        return self._resolve(q)[2]

    def same_register(self, a: QubitHandle, b: QubitHandle) -> bool:
        return self._resolve(a)[0] == self._resolve(b)[0]

    # -- internals --------------------------------------------------------

    def _resolve(self, q: QubitHandle) -> tuple[int, _State, int]:
        if not isinstance(q, QubitHandle):
            raise InvalidHandle(f"not a qubit handle: {q!r}")
        rid, pos = q
        forwards = self._forwards
        if forwards:
            while rid in forwards:
                rid, off = forwards[rid]
                pos += off
        state = self._registers.get(rid)
        if state is None or not 0 <= pos < state.num_qubits:
            raise InvalidHandle(f"unknown qubit {q!r}")
        return rid, state, pos
