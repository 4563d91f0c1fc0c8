"""Executable state machines for the two private-comparison protocol variants.

Both variants follow the same shape: a third party (TP) prepares Bell pairs
and sends one half to each participant; participants either reflect the
received qubit (CTRL) or substitute a fresh Z-basis qubit (SIFT); TP
measures per the announced choices, runs its integrity checks, and computes
the per-bit comparison values after the participants publish their masking
material.

Variant differences:
    - jiang: SIFT encodes ``K XOR RA XOR x`` classically; raw keys RA/RB are
      published in the clear at the end, in the `MaskRecord`.
    - improved: SIFT splits into SIFT(calculate), which measures the received
      qubit and re-encodes the result, and SIFT(detect), which sends a trap
      qubit; only the XOR masks ``RA XOR RA'`` are ever published.

Comparison pairing: participants' choices are independent, so TP pairs
Alice's j-th SIFT(calculate) contribution with Bob's j-th, and each side
indexes its key material by its own calculate ordinal. Under that pairing
the masks cancel exactly and each comparison value equals ``x_j XOR y_j``.

TP dispatches on each round's (Alice, Bob) choice pair, 4 pairs in jiang
and 9 in improved: a double-CTRL round (case 1) is Bell-measured for the
Bell check, and every SIFT qubit is Z-measured as a calculate value or a
trap announcement. TP counts its checks in that same pass (case-1 rounds and
wrong Bell outcomes; per side, traps sent and announcements that disagree),
and the integrity checks and the `TrialReport` read those counts. The same
pass writes each round's `RoundRecord`, an immutable named tuple, once; the
frozen `Transcript` holds them with the published masks and r values.

Channel interface: `run_protocol` drives any object with
`bind(sim, rng, variant, shared_key)` (`rng` is the run's generator),
`transmit(leg, round_index, qubit) -> QubitHandle`,
`observe_choices(alice_choices)`, `observe_publication(MaskRecord)` and a
`recovered_secret` attribute (None, or the secret bits it decoded). The
adversary module's `ChannelStrategy` is the one implementation in the package.

Config and report dataclasses are frozen, and each `__post_init__` checks
the fields against their declarations with `check_fields`, so a field's type
and range is stated once, where it is declared. One `ProtocolConfig` holds a
run's inputs, the bit tuples x, y, k, ra and rb next to its settings; the
channel gets the pre-shared key k at `bind`, which is how an insider knows it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from operator import index
from typing import NamedTuple

import numpy as np

from .qsim import BellKind, QubitHandle, Simulator, ValidationError, as_generator


class Variant(Enum):
    JIANG = "jiang"
    IMPROVED = "improved"


class Choice(Enum):
    CTRL = "ctrl"
    SIFT_CALCULATE = "sift_calculate"
    SIFT_DETECT = "sift_detect"


class AbortReason(Enum):
    BELL_CHECK_FAILED = "bell_check_failed"
    TRAP_CHECK_FAILED = "trap_check_failed"
    INSUFFICIENT_ROUNDS = "insufficient_rounds"


class Leg(Enum):
    """Transmission legs a qubit can traverse, in per-round order."""

    FORWARD_TP_TO_ALICE = "forward_tp_to_alice"
    FORWARD_TP_TO_BOB = "forward_tp_to_bob"
    RETURN_ALICE_TO_TP = "return_alice_to_tp"
    RETURN_BOB_TO_TP = "return_bob_to_tp"

    # Members are singletons compared by identity, so the C-level identity
    # hash is equivalent to Enum's Python-level one: channels key their
    # per-qubit bookkeeping by (leg, round).
    __hash__ = object.__hash__


@cache
def _field_plan(cls: type) -> tuple[tuple[str, str, bool, int], ...]:
    """(name, kind, optional, min) of each field of `cls`, from its declaration."""
    plan = []
    for f in fields(cls):
        kind, _, optional = f.type.partition(" | ")
        plan.append((f.name, kind, optional == "None", f.metadata.get("min", 0)))
    return tuple(plan)


def check_fields(record, flags: bool = False) -> None:
    """Check each field of a dataclass instance against its declaration.

    `str` fields must be strings. `int` fields must be ints, at least the
    field's `min` metadata, or nonnegative without one. `float` fields must
    lie in [0, 1]. `tuple[int, ...]` fields must be tuples of 0/1 bits, each
    accepted through `operator.index` (so bools and numpy integers pass). A
    field declared `| None` may be None; fields of any other type are not
    checked. With `flags`, messages name each field by its command-line flag.
    The declarations are read once per class.
    """
    for name, kind, optional, low in _field_plan(type(record)):
        value = getattr(record, name)
        if value is None and optional:
            continue
        name = "--" + name.replace("_", "-") if flags else name
        if kind == "str" and not isinstance(value, str):
            raise ValidationError(f"{name} must be a string, got {value!r}")
        if kind == "int":
            if type(value) is not int:
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if low and value < low:
                raise ValidationError(f"{name} must be at least {low}")
            if value < 0:
                raise ValidationError(
                    f"{name} must be a nonnegative integer, got {value!r}"
                )
        if kind == "float" and not (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and 0.0 <= value <= 1.0
        ):
            raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
        if kind == "tuple[int, ...]":
            try:
                bits = isinstance(value, tuple) and _BITS.issuperset(map(index, value))
            except TypeError:
                bits = False
            if not bits:
                raise ValidationError(f"{name} must be a tuple of 0/1 bits, got {value!r}")


_BITS = frozenset((0, 1))


@dataclass(frozen=True)
class ComparisonOutcome:
    """Protocol verdict: Equal, NotEqual at an ordinal, or Aborted."""

    equal: bool | None
    first_differing_ordinal: int | None = None
    abort_reason: AbortReason | None = None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


@dataclass(frozen=True)
class ProtocolConfig:
    """One run's inputs: the secrets x and y, the pre-shared key k, the raw
    keys ra and rb (all L >= 1 bits long), and the run's settings."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    k: tuple[int, ...]
    ra: tuple[int, ...]
    rb: tuple[int, ...]
    num_rounds: int = field(metadata={"min": 1})
    p_ctrl: float = 0.5
    p_detect: float = 0.5
    threshold: float = 0.0

    def __post_init__(self):
        check_fields(self)
        L = len(self.x)
        if not L or not len(self.y) == len(self.k) == len(self.ra) == len(self.rb) == L:
            raise ValidationError("x, y, k, ra and rb must have equal nonzero length")


class RoundRecord(NamedTuple):
    """Everything observable about one protocol round; None where not applicable."""

    round_index: int
    original_kind: BellKind
    alice_choice: Choice
    bob_choice: Choice
    alice_ordinal: int | None = None  # 1-based SIFT(calculate) counter
    bob_ordinal: int | None = None
    ma: int | None = None  # TP's Z outcome on Alice's calculate qubit
    mb: int | None = None
    trap_sent_a: int | None = None  # trap bit Alice prepared
    trap_sent_b: int | None = None
    tp_trap_a: int | None = None  # TP's announced Z outcome on the trap
    tp_trap_b: int | None = None
    tp_bell_outcome: BellKind | None = None


@dataclass(frozen=True)
class MaskRecord:
    """Published end-of-protocol values: RA/RB (jiang) or XOR masks (improved)."""

    alice_masks: tuple[int, ...]
    bob_masks: tuple[int, ...]


@dataclass(frozen=True)
class Transcript:
    """One run's rounds, then the published masks and TP's comparison values
    (both None when the run aborted)."""

    rounds: tuple[RoundRecord, ...]
    masks: MaskRecord | None = None
    r_values: tuple[int, ...] | None = None


class TrialReport(NamedTuple):
    """Outcome summary of one full protocol execution, built once per run."""

    outcome: ComparisonOutcome
    verdict_correct: bool | None  # None when aborted
    n: int  # Alice trap count
    m: int  # Bob trap count
    case1_rounds: int
    case1_errors: int
    trap_mismatches: int
    adversary_recovered_secret_correct: bool | None

    @property
    def detected(self) -> bool:
        """True when a security check (Bell or trap) triggered the abort."""
        return self.outcome.abort_reason in (
            AbortReason.BELL_CHECK_FAILED,
            AbortReason.TRAP_CHECK_FAILED,
        )


# -- classical XOR layer ----------------------------------------------------


def compute_ma_jiang(k_bit: int, ra_bit: int, x_bit: int) -> int:
    """Encoded bit a jiang-variant participant loads onto its fresh qubit."""
    return k_bit ^ ra_bit ^ x_bit


def compute_r(ma: int, mb: int, pub_a: int, pub_b: int) -> int:
    """TP's per-ordinal comparison value; equals x XOR y for honest inputs.
    `pub_a`/`pub_b` are the published raw-key bits (jiang) or XOR masks (improved)."""
    return ma ^ mb ^ pub_a ^ pub_b


def compute_mask_improved(k_bit: int, ra_bit: int, x_bit: int, ma_bit: int) -> int:
    """Published value RA XOR RA'; the raw-key bit cancels by construction."""
    ra_prime = k_bit ^ ra_bit ^ x_bit ^ ma_bit
    return ra_bit ^ ra_prime


# -- protocol execution ------------------------------------------------------


_CTRL, _CALCULATE, _DETECT = Choice.CTRL, Choice.SIFT_CALCULATE, Choice.SIFT_DETECT
_TO_ALICE, _TO_BOB, _FROM_ALICE, _FROM_BOB = Leg
_BELL_KINDS = tuple(BellKind)


def run_protocol(
    variant: Variant,
    cfg: ProtocolConfig,
    channel=None,
    seed: int | np.random.Generator | None = None,
) -> tuple[ComparisonOutcome, Transcript, TrialReport]:
    """Execute one full protocol run through an (optionally adversarial) channel.

    A single generator drives every random decision and measurement of the
    run, so a seed fixes the whole transcript. `seed` goes through
    `qsim.as_generator`; a numpy Generator passed in is used as is, so its
    state afterwards is exactly that of the run's draws. The channel shares
    the generator. Each round draws, in order: the Bell kind, whatever the
    channel draws on the forward legs, Alice's choice and SIFT operation,
    then Bob's. `channel` is any object with the channel interface (see the
    module docstring); None means an untouched channel, and no transmit call
    is made. Every record is built once: TP's pass makes each round's
    `RoundRecord` from the played round, and the `Transcript` comes last.
    """
    if not isinstance(variant, Variant):
        raise ValidationError(f"variant must be a Variant, got {variant!r}")
    rng = as_generator(seed)
    sim = Simulator(rng)
    L = len(cfg.x)
    transmit = None
    if channel is not None:
        channel.bind(sim, rng, variant, cfg.k)
        transmit = channel.transmit

    integers, random = rng.integers, rng.random
    prepare_bell, prepare_basis = sim.prepare_bell, sim.prepare_basis
    measure_z, measure_bell = sim.measure_z, sim.measure_bell
    improved = variant is Variant.IMPROVED
    p_ctrl, p_detect = cfg.p_ctrl, cfg.p_detect
    # Per side (0 Alice, 1 Bob): the bits sent on its SIFT(calculate) rounds.
    sent: tuple[list[int], list[int]] = ([], [])
    encoded = () if improved else (  # jiang: each side's L encoded bits
        tuple(map(compute_ma_jiang, cfg.k, cfg.ra, cfg.x)),
        tuple(map(compute_ma_jiang, cfg.k, cfg.rb, cfg.y)),
    )

    def sift(side: int, received: QubitHandle):
        """A SIFT by `side`: (choice, outgoing qubit, ordinal, trap bit)."""
        if improved and random() < p_detect:
            trap = int(integers(2))
            return _DETECT, prepare_basis(trap), None, trap
        # SIFT(calculate). The jiang variant discards the received qubit and
        # encodes from key material; the improved variant measures it.
        bits = sent[side]
        if improved:
            bit = measure_z(received)
        elif len(bits) < L:
            bit = encoded[side][len(bits)]
        else:
            bit = int(integers(2))  # filler past the comparison length
        bits.append(bit)
        return _CALCULATE, prepare_basis(bit), len(bits), None

    played = []  # (round, kind, choices, ordinals, traps, returned qubits)
    for i in range(cfg.num_rounds):
        kind = _BELL_KINDS[integers(4)]
        half_a, half_b = prepare_bell(kind)
        if transmit is not None:
            half_a = transmit(_TO_ALICE, i, half_a)
            half_b = transmit(_TO_BOB, i, half_b)
        if random() < p_ctrl:
            choice_a, out_a, ord_a, trap_a = _CTRL, half_a, None, None
        else:
            choice_a, out_a, ord_a, trap_a = sift(0, half_a)
        if random() < p_ctrl:
            choice_b, out_b, ord_b, trap_b = _CTRL, half_b, None, None
        else:
            choice_b, out_b, ord_b, trap_b = sift(1, half_b)
        if transmit is not None:
            out_a = transmit(_FROM_ALICE, i, out_a)
            out_b = transmit(_FROM_BOB, i, out_b)
        played.append(
            (i, kind, choice_a, choice_b, ord_a, ord_b, trap_a, trap_b, out_a, out_b)
        )

    # Choices (and which SIFTs are detect) become public before TP measures.
    if channel is not None:
        channel.observe_choices([play[2] for play in played])

    # TP dispatch: Bell-measure double-CTRL rounds, Z-measure every qubit a
    # SIFT participant sent; announce the trap results. Rounds are visited in
    # order, so calculate outcomes arrive in each participant's ordinal order.
    records = []
    ma_by_ordinal, mb_by_ordinal = [], []  # TP's calculate outcomes per side
    case1 = bell_errors = traps_a = traps_b = bad_a = bad_b = 0
    for i, kind, choice_a, choice_b, ord_a, ord_b, trap_a, trap_b, back_a, back_b in played:
        ma = mb = tp_trap_a = tp_trap_b = bell = None
        if choice_a is _CTRL and choice_b is _CTRL:
            bell = measure_bell(back_a, back_b)
            case1 += 1
            bell_errors += bell != kind
        else:
            if choice_a is _CALCULATE:
                ma = measure_z(back_a)
                ma_by_ordinal.append(ma)
            elif choice_a is _DETECT:
                tp_trap_a = measure_z(back_a)
                traps_a += 1
                bad_a += tp_trap_a != trap_a
            if choice_b is _CALCULATE:
                mb = measure_z(back_b)
                mb_by_ordinal.append(mb)
            elif choice_b is _DETECT:
                tp_trap_b = measure_z(back_b)
                traps_b += 1
                bad_b += tp_trap_b != trap_b
        records.append(RoundRecord(
            i, kind, choice_a, choice_b, ord_a, ord_b, ma, mb, trap_a, trap_b,
            tp_trap_a, tp_trap_b, bell,
        ))

    # Integrity checks, Bell then traps; an error-free check passes, even an empty one.
    masks = r_values = None
    if bell_errors and bell_errors / case1 > cfg.threshold:
        outcome = ComparisonOutcome(None, abort_reason=AbortReason.BELL_CHECK_FAILED)
    elif improved and (
        bad_a and bad_a / traps_a > cfg.threshold
        or bad_b and bad_b / traps_b > cfg.threshold
    ):
        outcome = ComparisonOutcome(None, abort_reason=AbortReason.TRAP_CHECK_FAILED)
    elif len(sent[0]) < L or len(sent[1]) < L:
        outcome = ComparisonOutcome(None, abort_reason=AbortReason.INSUFFICIENT_ROUNDS)
    else:
        # Final step: participants publish (raw keys in jiang, XOR masks over
        # their first L calculate bits in improved), TP pairs ordinals and compares.
        if improved:
            masks = MaskRecord(
                tuple(map(compute_mask_improved, cfg.k, cfg.ra, cfg.x, sent[0])),
                tuple(map(compute_mask_improved, cfg.k, cfg.rb, cfg.y, sent[1])),
            )
        else:
            masks = MaskRecord(cfg.ra, cfg.rb)
        if channel is not None:
            channel.observe_publication(masks)
        r_values = tuple(
            map(compute_r, ma_by_ordinal, mb_by_ordinal, masks.alice_masks, masks.bob_masks)
        )
        first = next((j for j, r in enumerate(r_values, 1) if r), None)
        outcome = ComparisonOutcome(first is None, first_differing_ordinal=first)
    transcript = Transcript(tuple(records), masks, r_values)

    recovered = None
    if channel is not None and channel.recovered_secret is not None:
        recovered = channel.recovered_secret == cfg.x
    truth = cfg.x == cfg.y
    return outcome, transcript, TrialReport(
        outcome,
        None if outcome.aborted else outcome.equal == truth,
        traps_a,
        traps_b,
        case1,
        bell_errors,
        bad_a + bad_b,
        recovered,
    )
