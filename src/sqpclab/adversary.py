"""Channel attacks between TP and the participants, one table row each.

Each attack is an `Attack` record in `ATTACKS`. One `ChannelStrategy` class
carries out any row, and the harness reads the same row for its detection
statistic and its secret-recovery gate. Every qubit transmission passes
through the strategy's `transmit` hook, which returns whatever the
downstream side actually receives: the original qubit, a held one, or a
forgery. The strategy also sees the public classical flow (choice
announcements, then the published `MaskRecord`) so an insider can exploit it.

Knowledge model: an outside eavesdropper sees only qubits in transit; a
malicious participant (Bob) additionally knows the pre-shared key, which
the run hands every channel at `bind`, and all public announcements. Only
an insider row reads the key. Nobody colludes with TP.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .protocol import Choice, Leg, MaskRecord, ValidationError, Variant
from .qsim import QubitHandle, Simulator

_ALICE, _BOB = Leg.FORWARD_TP_TO_ALICE, Leg.FORWARD_TP_TO_BOB
_ALICE_RETURN = Leg.RETURN_ALICE_TO_TP

_RETURN_TO_FORWARD = {_ALICE_RETURN: _ALICE, Leg.RETURN_BOB_TO_TP: _BOB}


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


class ChannelStrategy:
    """A channel that carries out one `Attack` row; the "none" row is untouched.

    What the adversary holds after a run: `held`, the qubits kept back by
    (leg, round); `learned_bits`; and `recovered_secret`, the decoded secret
    or None, which `run_protocol` reads for its report.
    """

    def __init__(self, attack: Attack):
        self.attack = attack
        self._forged, self._measured = attack.forged, attack.measured
        self.shared_key: tuple[int, ...] | None = None
        self.sim: Simulator | None = None
        self.rng = None  # the run's generator
        self.variant: Variant | None = None
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

    def bind(self, sim, rng, variant, shared_key) -> None:
        """Take the run's simulator, generator, variant and pre-shared key."""
        self.sim, self.rng, self.variant = sim, rng, variant
        self.shared_key = shared_key

    def transmit(self, leg: Leg, round_index: int, qubit: QubitHandle) -> QubitHandle:
        if leg in self._forged:
            key = (leg, round_index)
            self.held[key] = qubit
            bit = self.fake_bits[key] = int(self.rng.integers(2))
            return self.sim.prepare_basis(bit)
        if leg in self._measured:
            self.learned_bits[2 * round_index + (leg is _BOB)] = self.sim.measure_z(qubit)
            return qubit
        forward = self._swap.get(leg)
        if forward is not None:
            # the participant row Z-measures its held returns (Alice's) in
            # `observe_choices` to read her bits; the outside row never does
            self.held[(leg, round_index)] = qubit
            return self.held.pop((forward, round_index))
        return qubit

    def observe_choices(self, alice_choices: Sequence[Choice]) -> None:
        """An insider reads Alice's encoded bits: by measuring her held returns,
        or, without swap-back, as her Z outcomes on his Z-basis forgeries.
        The latter needs the improved variant: jiang encodes classically."""
        attack = self.attack
        if not attack.insider or not (
            attack.swap_back or self.variant is Variant.IMPROVED
        ):
            return
        ordinal = 0
        for i, choice in enumerate(alice_choices):
            if choice is Choice.CTRL:
                continue
            if attack.swap_back:
                bit = self.sim.measure_z(self.held[(_ALICE_RETURN, i)])
            else:
                bit = self.fake_bits[(_ALICE, i)]
            if choice is Choice.SIFT_CALCULATE:
                ordinal += 1
                self.learned_bits[ordinal] = bit

    def observe_publication(self, masks: MaskRecord) -> None:
        """An insider decodes x_j = encoded_j ^ RA_j ^ K_j once jiang
        publishes the raw keys; improved masks admit no such decoding."""
        if not self.attack.insider or self.variant is not Variant.JIANG:
            return
        ra = masks.alice_masks
        bits = []
        for j in range(1, len(ra) + 1):
            if j not in self.learned_bits:
                break
            bits.append(self.learned_bits[j] ^ ra[j - 1] ^ self.shared_key[j - 1])
        if bits:
            self.recovered_secret = tuple(bits)


def make_strategy(name: str):
    """A fresh strategy for the attack `name`; None for an untouched channel."""
    if name not in ATTACKS:
        raise ValidationError(f"unknown attack {name!r}")
    attack = ATTACKS[name]
    if not (attack.forged or attack.measured):
        return None
    return ChannelStrategy(attack)
