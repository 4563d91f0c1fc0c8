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
trap announcement.

Channel interface: `run_protocol` drives any object with `bind(RunContext)`,
`transmit(ChannelEvent) -> QubitHandle`, `observe_choices(alice, bob)`,
`observe_publication(MaskRecord)` and `state() -> AdversaryState`. The
adversary module's `ChannelStrategy` is the one implementation in the
package; the variant a strategy needs comes from its bound `RunContext`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .qsim import BellKind, QubitHandle, Simulator


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


@dataclass(frozen=True)
class ChannelEvent:
    """One qubit in transit; carries custody of the handle."""

    leg: Leg
    round_index: int
    qubit: QubitHandle


@dataclass(frozen=True)
class ComparisonOutcome:
    """Protocol verdict: Equal, NotEqual at an ordinal, or Aborted."""

    equal: bool | None
    first_differing_ordinal: int | None = None
    abort_reason: AbortReason | None = None

    @classmethod
    def make_equal(cls) -> "ComparisonOutcome":
        return cls(equal=True)

    @classmethod
    def make_not_equal(cls, ordinal: int) -> "ComparisonOutcome":
        return cls(equal=False, first_differing_ordinal=ordinal)

    @classmethod
    def make_aborted(cls, reason: AbortReason) -> "ComparisonOutcome":
        return cls(equal=None, abort_reason=reason)

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


@dataclass(frozen=True)
class SecretInput:
    """The two participants' secret bit strings (equal length L >= 1)."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        if len(self.x) != len(self.y) or not self.x:
            raise ValueError("secrets must be equal nonzero length")

    @property
    def length(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class KeyMaterial:
    """Pre-shared key K plus the participants' private raw keys."""

    k: tuple[int, ...]
    ra: tuple[int, ...]
    rb: tuple[int, ...]


@dataclass
class ProtocolConfig:
    secrets: SecretInput
    keys: KeyMaterial
    num_rounds: int
    p_ctrl: float = 0.5
    p_detect: float = 0.5
    threshold: float = 0.0

    def __post_init__(self):
        L = self.secrets.length
        if not (len(self.keys.k) == len(self.keys.ra) == len(self.keys.rb) == L):
            raise ValueError("key material length must match secret length")
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be positive")
        for name, p in (("p_ctrl", self.p_ctrl), ("p_detect", self.p_detect),
                        ("threshold", self.threshold)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


@dataclass
class RoundRecord:
    """Everything observable about one protocol round."""

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


@dataclass
class Transcript:
    variant: Variant
    rounds: list[RoundRecord]
    masks: MaskRecord | None = None
    r_values: tuple[int, ...] | None = None

    def case1_stats(self) -> tuple[int, int]:
        """(number of case-1 rounds, number with a wrong Bell outcome)."""
        total = errors = 0
        for rec in self.rounds:
            if rec.tp_bell_outcome is not None:
                total += 1
                if rec.tp_bell_outcome != rec.original_kind:
                    errors += 1
        return total, errors


@dataclass(frozen=True)
class TrapCheck:
    mismatches_alice: int
    mismatches_bob: int
    traps_alice: int  # n
    traps_bob: int  # m

    @property
    def mismatches(self) -> int:
        return self.mismatches_alice + self.mismatches_bob


def verify_traps(transcript: Transcript) -> TrapCheck:
    """Count trap rounds per participant and TP announcements that disagree
    with the originally prepared trap bit."""
    n = m = bad_a = bad_b = 0
    for rec in transcript.rounds:
        if rec.trap_sent_a is not None:
            n += 1
            if rec.tp_trap_a is not None and rec.tp_trap_a != rec.trap_sent_a:
                bad_a += 1
        if rec.trap_sent_b is not None:
            m += 1
            if rec.tp_trap_b is not None and rec.tp_trap_b != rec.trap_sent_b:
                bad_b += 1
    return TrapCheck(bad_a, bad_b, n, m)


@dataclass
class TrialReport:
    """Outcome summary of one full protocol execution."""

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


def compute_r_jiang(ma: int, mb: int, ra: int, rb: int) -> int:
    """TP's per-ordinal comparison value; equals x XOR y for honest inputs."""
    return ma ^ mb ^ ra ^ rb


def compute_mask_improved(k_bit: int, ra_bit: int, x_bit: int, ma_bit: int) -> int:
    """Published value RA XOR RA'; the raw-key bit cancels by construction."""
    ra_prime = k_bit ^ ra_bit ^ x_bit ^ ma_bit
    return ra_bit ^ ra_prime


def compute_r_improved(ma: int, mb: int, mask_a: int, mask_b: int) -> int:
    """TP's per-ordinal comparison value from the published XOR masks."""
    return ma ^ mb ^ mask_a ^ mask_b


# -- protocol execution ------------------------------------------------------


@dataclass
class RunContext:
    """Run-scoped facilities handed to a channel strategy at bind time."""

    sim: Simulator
    rng: np.random.Generator
    variant: Variant
    num_rounds: int
    secret_bits: int


class _Party:
    """Per-participant protocol state: choices, encodings, traps, masks."""

    def __init__(
        self,
        secret: tuple[int, ...],
        raw_key: tuple[int, ...],
        shared_key: tuple[int, ...],
    ):
        self.secret = secret
        self.raw_key = raw_key
        self.shared_key = shared_key
        self.length = len(secret)
        self.calc_count = 0
        self.masks: list[int] = []  # improved variant, ordinals 1..L
        self.encoded: list[int] = []  # bit carried by each calculate qubit

    def act(
        self,
        variant: Variant,
        choice: Choice,
        received: QubitHandle,
        sim: Simulator,
        rng: np.random.Generator,
    ) -> tuple[QubitHandle, int | None, int | None]:
        """Perform the chosen operation; returns (outgoing qubit, ordinal, trap bit)."""
        if choice is Choice.CTRL:
            return received, None, None
        if choice is Choice.SIFT_DETECT:
            trap = int(rng.integers(2))
            return sim.prepare_basis(trap), None, trap
        # SIFT(calculate). The jiang variant discards the received qubit and
        # encodes from key material; the improved variant measures it.
        self.calc_count += 1
        j = self.calc_count
        if variant is Variant.JIANG:
            if j <= self.length:
                bit = compute_ma_jiang(
                    self.shared_key[j - 1], self.raw_key[j - 1], self.secret[j - 1]
                )
            else:
                bit = int(rng.integers(2))  # filler past the comparison length
        else:
            bit = sim.measure_z(received)
            if j <= self.length:
                self.masks.append(
                    compute_mask_improved(
                        self.shared_key[j - 1],
                        self.raw_key[j - 1],
                        self.secret[j - 1],
                        bit,
                    )
                )
        self.encoded.append(bit)
        return sim.prepare_basis(bit), j, None


def _draw_choice(
    variant: Variant, rng: np.random.Generator, p_ctrl: float, p_detect: float
) -> Choice:
    if rng.random() < p_ctrl:
        return Choice.CTRL
    if variant is Variant.IMPROVED and rng.random() < p_detect:
        return Choice.SIFT_DETECT
    return Choice.SIFT_CALCULATE


def _transmit(channel, leg: Leg, round_index: int, qubit: QubitHandle) -> QubitHandle:
    if channel is None:
        return qubit
    return channel.transmit(ChannelEvent(leg, round_index, qubit))


def run_protocol(
    variant: Variant,
    cfg: ProtocolConfig,
    channel=None,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[ComparisonOutcome, Transcript, TrialReport]:
    """Execute one full protocol run through an (optionally adversarial) channel.

    A single RNG stream drives every random decision and measurement of the
    run, so a seed fixes the whole transcript. `channel` is any object with
    the strategy interface (see adversary module); None means an untouched
    channel.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    sim = Simulator(rng=rng)
    L = cfg.secrets.length
    alice = _Party(cfg.secrets.x, cfg.keys.ra, cfg.keys.k)
    bob = _Party(cfg.secrets.y, cfg.keys.rb, cfg.keys.k)

    if channel is not None:
        channel.bind(RunContext(sim, rng, variant, cfg.num_rounds, L))

    records: list[RoundRecord] = []
    returned: list[tuple[QubitHandle, QubitHandle]] = []

    for i in range(cfg.num_rounds):
        kind = BellKind(int(rng.integers(4)))
        half_a, half_b = sim.prepare_bell(kind)
        recv_a = _transmit(channel, Leg.FORWARD_TP_TO_ALICE, i, half_a)
        recv_b = _transmit(channel, Leg.FORWARD_TP_TO_BOB, i, half_b)

        choice_a = _draw_choice(variant, rng, cfg.p_ctrl, cfg.p_detect)
        out_a, ord_a, trap_a = alice.act(variant, choice_a, recv_a, sim, rng)
        choice_b = _draw_choice(variant, rng, cfg.p_ctrl, cfg.p_detect)
        out_b, ord_b, trap_b = bob.act(variant, choice_b, recv_b, sim, rng)

        back_a = _transmit(channel, Leg.RETURN_ALICE_TO_TP, i, out_a)
        back_b = _transmit(channel, Leg.RETURN_BOB_TO_TP, i, out_b)

        records.append(
            RoundRecord(
                round_index=i,
                original_kind=kind,
                alice_choice=choice_a,
                bob_choice=choice_b,
                alice_ordinal=ord_a,
                bob_ordinal=ord_b,
                trap_sent_a=trap_a,
                trap_sent_b=trap_b,
            )
        )
        returned.append((back_a, back_b))

    # Choices (and which SIFTs are detect) become public before TP measures.
    if channel is not None:
        channel.observe_choices(
            [rec.alice_choice for rec in records],
            [rec.bob_choice for rec in records],
        )

    # TP dispatch: Bell-measure double-CTRL rounds, Z-measure every qubit a
    # SIFT participant sent; announce the trap results. Rounds are visited in
    # order, so calculate outcomes arrive in each participant's ordinal order.
    ma_by_ordinal: list[int] = []
    mb_by_ordinal: list[int] = []
    for rec, (back_a, back_b) in zip(records, returned):
        if rec.alice_choice is Choice.CTRL and rec.bob_choice is Choice.CTRL:
            rec.tp_bell_outcome = sim.measure_bell(back_a, back_b)
            continue
        if rec.alice_choice is Choice.SIFT_CALCULATE:
            rec.ma = sim.measure_z(back_a)
            ma_by_ordinal.append(rec.ma)
        elif rec.alice_choice is Choice.SIFT_DETECT:
            rec.tp_trap_a = sim.measure_z(back_a)
        if rec.bob_choice is Choice.SIFT_CALCULATE:
            rec.mb = sim.measure_z(back_b)
            mb_by_ordinal.append(rec.mb)
        elif rec.bob_choice is Choice.SIFT_DETECT:
            rec.tp_trap_b = sim.measure_z(back_b)

    transcript = Transcript(variant=variant, rounds=records)
    traps = verify_traps(transcript)
    case1, errors = transcript.case1_stats()

    def rate(bad: int, total: int) -> float:
        return bad / total if total else 0.0

    # Integrity checks: Bell outcomes on double-CTRL rounds, then traps.
    if rate(errors, case1) > cfg.threshold:
        outcome = ComparisonOutcome.make_aborted(AbortReason.BELL_CHECK_FAILED)
    elif variant is Variant.IMPROVED and (
        rate(traps.mismatches_alice, traps.traps_alice) > cfg.threshold
        or rate(traps.mismatches_bob, traps.traps_bob) > cfg.threshold
    ):
        outcome = ComparisonOutcome.make_aborted(AbortReason.TRAP_CHECK_FAILED)
    elif alice.calc_count < L or bob.calc_count < L:
        outcome = ComparisonOutcome.make_aborted(AbortReason.INSUFFICIENT_ROUNDS)
    else:
        # Final step: participants publish (raw keys in jiang, XOR masks in
        # improved), TP pairs ordinals and compares.
        if variant is Variant.JIANG:
            transcript.masks = MaskRecord(cfg.keys.ra, cfg.keys.rb)
            compute_r = compute_r_jiang
        else:
            transcript.masks = MaskRecord(tuple(alice.masks), tuple(bob.masks))
            compute_r = compute_r_improved
        if channel is not None:
            channel.observe_publication(transcript.masks)
        pub_a, pub_b = transcript.masks.alice_masks, transcript.masks.bob_masks
        transcript.r_values = tuple(
            compute_r(ma_by_ordinal[j], mb_by_ordinal[j], pub_a[j], pub_b[j])
            for j in range(L)
        )
        outcome = ComparisonOutcome.make_equal()
        for j, r in enumerate(transcript.r_values):
            if r != 0:
                outcome = ComparisonOutcome.make_not_equal(j + 1)
                break

    recovered = None
    if channel is not None:
        state = channel.state()
        if state.recovered_secret is not None:
            recovered = state.recovered_secret == cfg.secrets.x
    truth = cfg.secrets.x == cfg.secrets.y
    return outcome, transcript, TrialReport(
        outcome=outcome,
        verdict_correct=None if outcome.aborted else outcome.equal == truth,
        n=traps.traps_alice,
        m=traps.traps_bob,
        case1_rounds=case1,
        case1_errors=errors,
        trap_mismatches=traps.mismatches,
        adversary_recovered_secret_correct=recovered,
    )
