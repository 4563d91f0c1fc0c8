"""Independent reference computations used to freeze expected test values.

Everything here is explicit linear algebra or exhaustive enumeration and
shares no code with the package under test.
"""
from fractions import Fraction
from math import comb

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


def four_sigma(p: float, n: int) -> float:
    """Width of the 4-standard-deviation binomial band around p."""
    return 4.0 * np.sqrt(p * (1.0 - p) / n)
