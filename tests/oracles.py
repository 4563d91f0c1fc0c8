"""Independent reference computations used to freeze expected test values.

Everything here is explicit linear algebra or exhaustive enumeration and
shares no code with the package under test.
"""
import math
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np

SQRT2_INV = 1.0 / np.sqrt(2.0)

# Bell vectors over the |ab> basis (00, 01, 10, 11), written from scratch.
BELL_ORDER = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
BELL_VECTORS = {
    "phi_plus": np.array([1.0, 0.0, 0.0, 1.0]) * SQRT2_INV,
    "phi_minus": np.array([1.0, 0.0, 0.0, -1.0]) * SQRT2_INV,
    "psi_plus": np.array([0.0, 1.0, 1.0, 0.0]) * SQRT2_INV,
    "psi_minus": np.array([0.0, 1.0, -1.0, 0.0]) * SQRT2_INV,
}
BELL_PARITY = {"phi_plus": 0, "phi_minus": 0, "psi_plus": 1, "psi_minus": 1}


def product_state(a: int, b: int) -> np.ndarray:
    va = np.zeros(2)
    va[a] = 1.0
    vb = np.zeros(2)
    vb[b] = 1.0
    return np.kron(va, vb)


def bell_probs_of_product(a: int, b: int) -> np.ndarray:
    """Bell-measurement outcome probabilities for |ab>, in BELL_ORDER."""
    psi = product_state(a, b)
    return np.array([abs(BELL_VECTORS[k] @ psi) ** 2 for k in BELL_ORDER])


def bell_probs_fresh_vs_half(bit: int, kind: str) -> np.ndarray:
    """Outcome probabilities when Bell-measuring (fresh |bit>, second half
    of a `kind` pair), by 3-qubit brute force over legs (fresh, a, b)."""
    fresh = np.zeros(2)
    fresh[bit] = 1.0
    psi = np.kron(fresh, BELL_VECTORS[kind]).reshape(2, 2, 2)
    probs = []
    for name in BELL_ORDER:
        bell = BELL_VECTORS[name].reshape(2, 2)  # indexed [fresh, b]
        total = 0.0
        for a in range(2):
            c = sum(
                bell[f, b] * psi[f, a, b] for f in range(2) for b in range(2)
            )
            total += abs(c) ** 2
        probs.append(total)
    return np.array(probs)


def intercept_resend_case1_error() -> float:
    """P(Bell outcome != original kind) when both halves are replaced by
    uniform Z-basis forgeries, averaged over kinds and forged bits."""
    match = 0.0
    for i in range(len(BELL_ORDER)):
        for a in (0, 1):
            for b in (0, 1):
                match += bell_probs_of_product(a, b)[i] / 16.0
    return 1.0 - match


def measure_resend_case1_error() -> float:
    """P(Bell outcome != original kind) after the pair is Z-collapsed in
    transit: collapse weights times product-state Bell probabilities."""
    match = 0.0
    for i, name in enumerate(BELL_ORDER):
        vec = BELL_VECTORS[name]
        for a in (0, 1):
            for b in (0, 1):
                weight = abs(vec[2 * a + b]) ** 2
                match += weight * bell_probs_of_product(a, b)[i] / 4.0
    return 1.0 - match


def forward_only_case1_error() -> float:
    """P(Bell outcome != original kind) when only Alice's half is replaced by
    a uniform Z-basis forgery and Bob's genuine half comes back, averaged
    over kinds and forged bits."""
    match = 0.0
    for i, name in enumerate(BELL_ORDER):
        for bit in (0, 1):
            match += bell_probs_fresh_vs_half(bit, name)[i] / 8.0
    return 1.0 - match


def insufficient_rounds_probability(rounds: int, p_calc: Fraction, length: int) -> float:
    """P(Alice or Bob makes fewer than `length` calculate rounds in `rounds`
    rounds), each round a calculate round with probability `p_calc`
    independently per participant: exact binomial tails in rationals."""
    q = sum(
        comb(rounds, k) * p_calc**k * (1 - p_calc) ** (rounds - k)
        for k in range(length)
    )
    return float(1 - (1 - q) ** 2)


def detection_probability(
    protocol: str, attack: str, rounds: int, p_ctrl: float, p_detect: float
) -> float:
    """Exact P(a trial aborts on the Bell or trap check) at threshold 0.

    Every round is independent. A round is double-CTRL with probability
    c = p_ctrl^2, and then the resend and forward-only attacks show a wrong
    Bell outcome with their case-1 error e; they never touch a trap, which
    the participant prepares fresh on a return leg nobody alters. In the
    improved protocol each side sends a trap with probability
    q = (1 - p_ctrl) * p_detect; on a leg whose genuine half is swapped back
    (both legs for the outsider, Alice's for the insider) TP Z-measures that
    half instead, which disagrees with the trap with probability 1/2. The
    other attacks disturb no check.
    """
    case1_error = {
        "participant-forward": forward_only_case1_error(),
        "intercept-resend": intercept_resend_case1_error(),
        "measure-resend": measure_resend_case1_error(),
    }
    if attack in case1_error:
        return 1.0 - (1.0 - p_ctrl**2 * case1_error[attack]) ** rounds
    swapped_legs = {"outside": 2, "participant": 1}.get(attack, 0)
    if protocol != "improved" or not swapped_legs:
        return 0.0
    q = (1.0 - p_ctrl) * p_detect
    return 1.0 - (1.0 - q / 2.0) ** (swapped_legs * rounds)


# Case-1 errors as exact rationals; tests check each against the float
# enumerations above.
CASE1_ERROR = {
    "participant-forward": Fraction(3, 4),
    "intercept-resend": Fraction(3, 4),
    "measure-resend": Fraction(1, 2),
}
# (Alice, Bob): legs whose genuine half comes back in place of the returned
# qubit, so that in the improved protocol TP Z-measures it against a trap.
SWAPPED_LEGS = {"outside": (True, True), "participant": (True, False)}


class AbortLaw(NamedTuple):
    detection: Fraction  # P(the Bell or trap check aborts)
    abort: Fraction
    insufficient_rounds: Fraction


def abort_law(
    protocol: str, attack: str, length: int, rounds: int, p_ctrl: float, p_detect: float
) -> AbortLaw:
    """Exact joint law of a trial's detection, abort and InsufficientRounds
    at threshold 0, by a per-round dynamic program in rationals.

    Each round both sides choose independently: CTRL with probability p_ctrl;
    otherwise, in improved, SIFT(detect) with probability p_detect, else
    SIFT(calculate). A double-CTRL round fires the Bell check with the
    attack's case-1 error, and a trap on a swapped leg fires the trap check
    with probability 1/2, independently per side. At threshold 0 any firing
    aborts as a detection; otherwise the trial aborts with InsufficientRounds
    when either side made fewer than `length` calculate rounds. The state is
    (Alice's calculate count, Bob's, both capped at `length`) while no check
    has fired; every fired state is one absorbing mass, since its counts no
    longer matter. Rates enter as the rationals of their decimal strings.
    """
    p_ctrl, p_detect = Fraction(str(p_ctrl)), Fraction(str(p_detect))
    detect = (1 - p_ctrl) * p_detect if protocol == "improved" else Fraction(0)
    # per side: (choice, probability, calculate increment, P(trap check fires))
    sides = [
        [
            ("ctrl", p_ctrl, 0, 0),
            ("calculate", 1 - p_ctrl - detect, 1, 0),
            ("detect", detect, 0, Fraction(1, 2) if swapped else 0),
        ]
        for swapped in SWAPPED_LEGS.get(attack, (False, False))
    ]
    case1_error = CASE1_ERROR.get(attack, Fraction(0))
    fired = Fraction(0)
    alive = {(0, 0): Fraction(1)}
    for _ in range(rounds):
        step: dict[tuple[int, int], Fraction] = {}
        for (calc_a, calc_b), mass in alive.items():
            for choice_a, p_a, inc_a, fire_a in sides[0]:
                for choice_b, p_b, inc_b, fire_b in sides[1]:
                    p = mass * p_a * p_b
                    if choice_a == choice_b == "ctrl":
                        fire = case1_error
                    else:
                        fire = 1 - (1 - fire_a) * (1 - fire_b)
                    fired += p * fire
                    state = (min(calc_a + inc_a, length), min(calc_b + inc_b, length))
                    step[state] = step.get(state, 0) + p * (1 - fire)
        alive = step
    short = sum(m for (a, b), m in alive.items() if a < length or b < length)
    return AbortLaw(fired, fired + short, Fraction(short))


# Two-sided tail mass of a 5-sigma normal deviation, about 5.7e-7.
TAIL = math.erfc(5.0 / math.sqrt(2.0))


def binomial_tails(observed: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= observed), P(X >= observed)) for X ~ Binomial(n, p), summed
    exactly term by term (in log space, so large n cannot overflow)."""
    if p in (0.0, 1.0):
        pmf = [float(j == n * p) for j in range(n + 1)]
    else:
        log_p, log_q = math.log(p), math.log1p(-p)
        pmf = [
            math.exp(
                math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                + j * log_p + (n - j) * log_q
            )
            for j in range(n + 1)
        ]
    return math.fsum(pmf[: observed + 1]), math.fsum(pmf[observed:])


def jiang_outside_wrong_result_single_bit() -> float:
    """P(one comparison value is nonzero | X = Y) under the swap attack.

    TP's two Z outcomes are either two halves of one pair (XOR equals the
    pair parity) or halves of two pairs (independent); raw-key bits are
    uniform either way. Enumerates both pairings exactly.
    """
    outcomes = []
    for parity in (0, 1):  # same-round pairing, parity uniform over kinds
        for za in (0, 1):
            zb = za ^ parity
            for ra in (0, 1):
                for rb in (0, 1):
                    outcomes.append(za ^ zb ^ ra ^ rb)
    for za in (0, 1):  # cross-round pairing, outcomes independent
        for zb in (0, 1):
            for ra in (0, 1):
                for rb in (0, 1):
                    outcomes.append(za ^ zb ^ ra ^ rb)
    return sum(outcomes) / len(outcomes)


def wrong_result_law(protocol: str, attack: str, length: int, secrets: str) -> Fraction | None:
    """Exact P(a completed trial's verdict is wrong), for the pairs whose law
    needs no conditioning on the trap checks; None for improved outside and
    participant, whose completed trials passed every trap.

    TP's j-th comparison value is x_j ^ y_j, flipped once for each side whose
    j-th calculate TP measures differently from the bit that side sent; the
    masks cancel the rest. Without swap-back every SIFT qubit returns as it
    was sent, so nothing flips and no verdict is wrong. Under jiang's
    swap-back TP measures the genuine Bell half, while the bit sent carries a
    raw-key bit that is uniform and independent of everything else, so each
    comparison value is a fair coin (`jiang_outside_wrong_result_single_bit`)
    and the L values are independent. The verdict then says "equal" with
    probability 2**-L whatever x and y are: wrong with 1 - 2**-L for equal
    secrets, 2**-L for unequal ones, and for random secrets, equal with
    probability 2**-L, the mixture 2 * 2**-L * (1 - 2**-L).
    """
    if attack not in SWAPPED_LEGS:
        return Fraction(0)
    if protocol == "improved":
        return None
    all_zero = Fraction(1, 2**length)
    return {
        "equal": 1 - all_zero,
        "unequal": all_zero,
        "random": 2 * all_zero * (1 - all_zero),
    }[secrets]


class CheckCounts(NamedTuple):
    n: int  # traps Alice sent
    m: int  # traps Bob sent
    bad_a: int  # TP announcements that disagree with Alice's trap bit
    bad_b: int
    case1_rounds: int
    case1_errors: int  # case-1 rounds whose Bell outcome is not the prepared kind

    @property
    def mismatches(self) -> int:
        return self.bad_a + self.bad_b


def recount_checks(rounds) -> CheckCounts:
    """TP's check statistics, recounted from a transcript's round records."""
    n = m = bad_a = bad_b = case1 = errors = 0
    for rec in rounds:
        if rec.trap_sent_a is not None:
            n += 1
            bad_a += rec.tp_trap_a != rec.trap_sent_a
        if rec.trap_sent_b is not None:
            m += 1
            bad_b += rec.tp_trap_b != rec.trap_sent_b
        if rec.tp_bell_outcome is not None:
            case1 += 1
            errors += rec.tp_bell_outcome != rec.original_kind
    return CheckCounts(n, m, bad_a, bad_b, case1, errors)


def four_sigma(p: float, n: int) -> float:
    """Width of the 4-standard-deviation binomial band around p."""
    return 4.0 * np.sqrt(p * (1.0 - p) / n)


def tp_inference_test(length: int, public_key: bool = False) -> float:
    """Max deviation of TP's posterior over any secret bit from uniform.

    Exhausts every assignment of the shared key, both secrets, both raw keys,
    and both measured bit vectors for an honest improved-variant run with
    `length` calculate ordinals per side, groups assignments by what TP can
    see (measured bits and published masks), and returns the largest
    |P(x_j = 1 | view) - 1/2| over all views and positions. With the shared
    key hidden this is exactly 0; `public_key=True` models a leaked key and
    drives the deviation to 1/2.
    """
    if not 1 <= length <= 3:
        raise ValueError("enumeration is sized for lengths 1..3")
    dim = 1 << length
    shape_axes = []
    for axis in range(7):
        shape = [1] * 7
        shape[axis] = dim
        shape_axes.append(np.arange(dim, dtype=np.int64).reshape(shape))
    key, x, y, ra, rb, ma, mb = shape_axes

    mask_a = key ^ x ^ ma  # == ra ^ ra', the ra terms cancel
    mask_b = key ^ y ^ mb
    view = ma + dim * (mb + dim * (mask_a + dim * mask_b))
    if public_key:
        view = view + dim**4 * key
    # ra/rb never enter the view: they only scale every cell uniformly.
    view_flat = np.broadcast_to(view, (dim,) * 7).ravel()
    num_views = dim**4 * (dim if public_key else 1)

    totals = np.bincount(view_flat, minlength=num_views)
    worst = 0.0
    for j in range(length):
        bit = np.broadcast_to((x >> j) & 1, (dim,) * 7).ravel()
        ones = np.bincount(view_flat, weights=bit.astype(float), minlength=num_views)
        occupied = totals > 0
        posterior = ones[occupied] / totals[occupied]
        worst = max(worst, float(np.abs(posterior - 0.5).max()))
    return worst
