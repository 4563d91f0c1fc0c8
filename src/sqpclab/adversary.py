"""Channel attacks between TP and the participants, one table row each.

Each attack is an `Attack` record in `ATTACKS`. One `ChannelStrategy` class
carries out any row, and the harness reads the same row for its detection
statistic and its secret-recovery gate. Every qubit transmission passes
through the strategy's `transmit` hook, which returns whatever the
downstream side actually receives: the original qubit, a held one, or a
forgery. The strategy also sees the public classical flow (choice
announcements, then the published `MaskRecord`) so an insider can exploit it.

Knowledge model: an outside eavesdropper sees only qubits in transit; a
malicious participant (Bob) additionally knows the pre-shared key and all
public announcements. Nobody colludes with TP.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .protocol import ChannelEvent, Choice, Leg, MaskRecord, RunContext, Variant
from .qsim import QubitHandle

_ALICE, _BOB = Leg.FORWARD_TP_TO_ALICE, Leg.FORWARD_TP_TO_BOB

_RETURN_TO_FORWARD = {Leg.RETURN_ALICE_TO_TP: _ALICE, Leg.RETURN_BOB_TO_TP: _BOB}


@dataclass(frozen=True)
class Attack:
    """One channel attack, as data.

    forged: forward legs whose genuine half is held while a random Z-basis
        forgery goes on in its place.
    swap_back: on the return leg of a forged leg, hold what the participant
        sends and deliver the held genuine half, so TP sees intact pairs.
    measured: forward legs Z-measured in transit and passed on collapsed.
    insider: the adversary is Bob, who reads Alice's encoded bits and
        decodes her secret from a published raw key.
    case1_error: probability that TP's Bell outcome on a double-CTRL round
        differs from the prepared kind.
    """

    name: str
    forged: tuple[Leg, ...] = ()
    swap_back: bool = False
    measured: tuple[Leg, ...] = ()
    insider: bool = False
    case1_error: float = 0.0


ATTACKS = {
    attack.name: attack
    for attack in (
        Attack("none"),
        # The paper's outside eavesdropper: swap every qubit in transit.
        Attack("outside", forged=(_ALICE, _BOB), swap_back=True),
        # The paper's malicious Bob: swap Alice's qubits, then decode her secret.
        Attack("participant", forged=(_ALICE,), swap_back=True, insider=True),
        # Probe: Bob forges Alice's forward leg only; her returns travel clean.
        Attack("participant-forward", forged=(_ALICE,), insider=True, case1_error=0.75),
        Attack("intercept-resend", forged=(_ALICE, _BOB), case1_error=0.75),
        Attack("measure-resend", measured=(_ALICE, _BOB), case1_error=0.5),
    )
}


@dataclass
class AdversaryState:
    """What an adversary holds at the end of a run."""

    stored_qubits: dict[tuple[Leg, int], QubitHandle] = field(default_factory=dict)
    learned_bits: dict[int, int] = field(default_factory=dict)
    recovered_secret: tuple[int, ...] | None = None


class ChannelStrategy:
    """A channel that carries out one `Attack` row; the "none" row is untouched."""

    def __init__(self, attack: Attack, shared_key: tuple[int, ...] | None = None):
        self.attack = attack
        self.name = attack.name
        self.shared_key = shared_key
        self.ctx: RunContext | None = None
        # return leg -> forward leg whose held genuine half it delivers
        self._swap = {
            back: forward
            for back, forward in _RETURN_TO_FORWARD.items()
            if attack.swap_back and forward in attack.forged
        }
        self.held: dict[tuple[Leg, int], QubitHandle] = {}
        self.fake_bits: dict[tuple[Leg, int], int] = {}
        # insider: Alice's encoded bit by calculate ordinal;
        # measure-resend: Z outcome by 2 * round + (0 Alice, 1 Bob)
        self.learned_bits: dict[int, int] = {}
        self.recovered_secret: tuple[int, ...] | None = None

    def bind(self, ctx: RunContext) -> None:
        self.ctx = ctx

    def transmit(self, event: ChannelEvent) -> QubitHandle:
        leg, i = event.leg, event.round_index
        if leg in self.attack.forged:
            self.held[(leg, i)] = event.qubit
            bit = int(self.ctx.rng.integers(2))
            self.fake_bits[(leg, i)] = bit
            return self.ctx.sim.prepare_basis(bit)
        if leg in self.attack.measured:
            self.learned_bits[2 * i + (leg is _BOB)] = self.ctx.sim.measure_z(event.qubit)
            return event.qubit
        forward = self._swap.get(leg)
        if forward is not None:
            self.held[(leg, i)] = event.qubit  # never measured; Eve has no use for it
            return self.held.pop((forward, i))
        return event.qubit

    def observe_choices(
        self, alice_choices: Sequence[Choice], bob_choices: Sequence[Choice]
    ) -> None:
        """An insider reads Alice's encoded bits: by measuring her held returns,
        or, without swap-back, as her Z outcomes on his Z-basis forgeries.
        The latter needs the improved variant: jiang encodes classically."""
        attack = self.attack
        if not attack.insider or not (
            attack.swap_back or self.ctx.variant is Variant.IMPROVED
        ):
            return
        ordinal = 0
        for i, choice in enumerate(alice_choices):
            if choice is Choice.CTRL:
                continue
            if attack.swap_back:
                bit = self.ctx.sim.measure_z(self.held[(Leg.RETURN_ALICE_TO_TP, i)])
            else:
                bit = self.fake_bits[(_ALICE, i)]
            if choice is Choice.SIFT_CALCULATE:
                ordinal += 1
                self.learned_bits[ordinal] = bit

    def observe_publication(self, masks: MaskRecord) -> None:
        """An insider decodes x_j = encoded_j ^ RA_j ^ K_j once jiang
        publishes the raw keys; improved masks admit no such decoding."""
        if not self.attack.insider or self.ctx.variant is not Variant.JIANG:
            return
        ra = masks.alice_masks
        bits = []
        for j in range(1, len(ra) + 1):
            if j not in self.learned_bits:
                break
            bits.append(self.learned_bits[j] ^ ra[j - 1] ^ self.shared_key[j - 1])
        if bits:
            self.recovered_secret = tuple(bits)

    def state(self) -> AdversaryState:
        return AdversaryState(
            dict(self.held), dict(self.learned_bits), self.recovered_secret
        )


def make_strategy(name: str, shared_key: tuple[int, ...] | None = None):
    """A fresh strategy for the attack `name`; None for an untouched channel."""
    if name not in ATTACKS:
        raise ValueError(f"unknown attack {name!r}")
    attack = ATTACKS[name]
    if not (attack.forged or attack.measured):
        return None
    return ChannelStrategy(attack, shared_key)
