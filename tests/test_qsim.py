"""Tests for the small-register state-vector simulator."""
import numpy as np
import pytest

from sqpclab import qsim
from sqpclab.qsim import (
    BellKind,
    CapacityExceeded,
    InvalidHandle,
    QubitHandle,
    SameRegister,
    Simulator,
)

import oracles

SQRT2_INV = 1.0 / np.sqrt(2.0)

# BellKind <-> oracle naming, in the simulator's selection order
KIND_NAMES = {
    BellKind.PHI_PLUS: "phi_plus",
    BellKind.PHI_MINUS: "phi_minus",
    BellKind.PSI_PLUS: "psi_plus",
    BellKind.PSI_MINUS: "psi_minus",
}


# -- preparation --------------------------------------------------------------


def test_prepare_basis_amplitudes():
    sim = Simulator(seed=0)
    assert np.array_equal(sim.amplitudes(sim.prepare_basis(0)), [1, 0])
    assert np.array_equal(sim.amplitudes(sim.prepare_basis(1)), [0, 1])


@pytest.mark.parametrize("bit", [0, 1])
def test_prepare_basis_measures_deterministically(bit):
    """Z eigenstates measure to their own bit, every time."""
    sim = Simulator(seed=3)
    for _ in range(200):
        q = sim.prepare_basis(bit)
        assert sim.measure_z(q) == bit


def test_prepare_basis_rejects_bad_bit():
    with pytest.raises(ValueError):
        Simulator(seed=0).prepare_basis(2)


def test_prepare_bell_amplitudes():
    sim = Simulator(seed=0)
    a, _ = sim.prepare_bell(BellKind.PHI_PLUS)
    assert np.allclose(sim.amplitudes(a), [SQRT2_INV, 0, 0, SQRT2_INV])
    b, _ = sim.prepare_bell(BellKind.PSI_MINUS)
    assert np.allclose(sim.amplitudes(b), [0, SQRT2_INV, -SQRT2_INV, 0])


@pytest.mark.parametrize("kind", list(BellKind))
def test_bell_measurement_is_eigenstate(kind):
    """Measuring a fresh pair in the Bell basis returns its kind, always."""
    sim = Simulator(seed=11)
    for _ in range(100):
        a, b = sim.prepare_bell(kind)
        assert sim.measure_bell(a, b) == kind


def test_qubit_ordering_convention():
    """First qubit of a merge is the most significant amplitude-index bit."""
    sim = Simulator(seed=0)
    one, zero = sim.prepare_basis(1), sim.prepare_basis(0)
    sim.merge(one, zero)
    assert np.array_equal(sim.amplitudes(one), [0, 0, 1, 0])  # |10>


# -- merge --------------------------------------------------------------------


def test_merge_product_state():
    sim = Simulator(seed=0)
    a, b = sim.prepare_basis(0), sim.prepare_basis(1)
    sim.merge(a, b)
    assert np.array_equal(sim.amplitudes(a), [0, 1, 0, 0])
    assert sim.same_register(a, b)
    assert sim.qubit_index(b) == 1


def test_merge_bell_half_with_fresh():
    sim = Simulator(seed=0)
    a, b = sim.prepare_bell(BellKind.PHI_MINUS)
    q = sim.prepare_basis(0)
    sim.merge(a, q)
    assert sim.register_size(a) == 3
    amps = sim.amplitudes(a)
    assert abs(np.vdot(amps, amps).real - 1.0) < 1e-12


def test_merge_same_register_is_an_error():
    sim = Simulator(seed=0)
    a, b = sim.prepare_bell(BellKind.PHI_PLUS)
    with pytest.raises(SameRegister):
        sim.merge(a, b)


def test_merge_capacity_limit():
    sim = Simulator(seed=0)
    a, _ = sim.prepare_bell(BellKind.PHI_PLUS)
    c, _ = sim.prepare_bell(BellKind.PSI_PLUS)
    sim.merge(a, c)  # 4 qubits: at the limit
    extra = sim.prepare_basis(0)
    with pytest.raises(CapacityExceeded):
        sim.merge(a, extra)


def test_merge_preserves_marginals():
    """Merging must not disturb single-qubit statistics (10^4 samples)."""
    samples = 10_000
    hits_merged = hits_plain = 0
    sim_a = Simulator(seed=77)
    sim_b = Simulator(seed=78)
    for _ in range(samples):
        a, _ = sim_a.prepare_bell(BellKind.PSI_PLUS)
        other = sim_a.prepare_basis(1)
        sim_a.merge(a, other)
        hits_merged += sim_a.measure_z(a)

        c, _ = sim_b.prepare_bell(BellKind.PSI_PLUS)
        hits_plain += sim_b.measure_z(c)
    tol = oracles.four_sigma(0.5, samples)
    assert abs(hits_merged / samples - 0.5) < tol
    assert abs(hits_plain / samples - 0.5) < tol


def test_handles_stay_valid_after_chained_merges():
    sim = Simulator(seed=5)
    qubits = [sim.prepare_basis(b) for b in (1, 0, 1, 1)]
    sim.merge(qubits[0], qubits[1])
    sim.merge(qubits[2], qubits[3])
    sim.merge(qubits[0], qubits[2])
    assert [sim.qubit_index(q) for q in qubits] == [0, 1, 2, 3]
    assert [sim.measure_z(q) for q in qubits] == [1, 0, 1, 1]


# -- Z measurement ------------------------------------------------------------


def test_measure_z_invalid_handle():
    sim = Simulator(seed=0)
    with pytest.raises(InvalidHandle):
        sim.measure_z(QubitHandle(999, 0))
    with pytest.raises(InvalidHandle):
        sim.measure_z("not a handle")


def test_phi_plus_halves_are_perfectly_correlated():
    sim = Simulator(seed=21)
    for _ in range(300):
        a, b = sim.prepare_bell(BellKind.PHI_PLUS)
        assert sim.measure_z(a) == sim.measure_z(b)


def test_psi_minus_halves_are_anticorrelated():
    sim = Simulator(seed=22)
    for _ in range(300):
        a, b = sim.prepare_bell(BellKind.PSI_MINUS)
        assert sim.measure_z(a) == 1 - sim.measure_z(b)


def test_bell_half_marginal_is_uniform():
    sim = Simulator(seed=23)
    samples = 20_000
    hits = sum(
        sim.measure_z(sim.prepare_bell(BellKind.PHI_PLUS)[0])
        for _ in range(samples)
    )
    assert abs(hits / samples - 0.5) < oracles.four_sigma(0.5, samples)


def test_measure_z_is_idempotent():
    """Re-measuring a collapsed qubit repeats the outcome, always."""
    sim = Simulator(seed=9)
    for _ in range(300):
        a, b = sim.prepare_bell(BellKind(int(sim._rng.integers(4))))
        first = sim.measure_z(a)
        assert sim.measure_z(a) == first
        second = sim.measure_z(b)
        assert sim.measure_z(b) == second


def test_parity_law():
    """Z outcomes on the two halves always XOR to the kind's parity."""
    sim = Simulator(seed=13)
    for kind in BellKind:
        for _ in range(500):
            a, b = sim.prepare_bell(kind)
            assert sim.measure_z(a) ^ sim.measure_z(b) == kind.parity


def test_commuting_marginals():
    """Measurement order on a pair does not change either marginal."""
    samples = 20_000
    tol = oracles.four_sigma(0.5, samples)
    for order in ("ab", "ba"):
        sim = Simulator(seed=31)
        hits_a = hits_b = 0
        for _ in range(samples):
            a, b = sim.prepare_bell(BellKind.PHI_MINUS)
            if order == "ab":
                hits_a += sim.measure_z(a)
                hits_b += sim.measure_z(b)
            else:
                hits_b += sim.measure_z(b)
                hits_a += sim.measure_z(a)
        assert abs(hits_a / samples - 0.5) < tol
        assert abs(hits_b / samples - 0.5) < tol


# -- Bell measurement ---------------------------------------------------------


def test_bell_measurement_of_product_state_matches_oracle():
    """|01> decomposes into the two Psi states with probability 1/2 each."""
    expected = oracles.bell_probs_of_product(0, 1)
    assert np.allclose(expected, [0, 0, 0.5, 0.5])

    sim = Simulator(seed=41)
    samples = 20_000
    counts = dict.fromkeys(BellKind, 0)
    for _ in range(samples):
        a, b = sim.prepare_basis(0), sim.prepare_basis(1)
        counts[sim.measure_bell(a, b)] += 1
    assert counts[BellKind.PHI_PLUS] == 0
    assert counts[BellKind.PHI_MINUS] == 0
    for kind in (BellKind.PSI_PLUS, BellKind.PSI_MINUS):
        assert abs(counts[kind] / samples - 0.5) < oracles.four_sigma(0.5, samples)


def test_bell_measurement_fresh_against_live_half_matches_oracle():
    """A forged qubit against one half of a live pair gives all four
    outcomes with probability 1/4."""
    for bit in (0, 1):
        for name in oracles.BELL_ORDER:
            assert np.allclose(oracles.bell_probs_fresh_vs_half(bit, name), 0.25)

    sim = Simulator(seed=42)
    samples = 20_000
    counts = dict.fromkeys(BellKind, 0)
    for _ in range(samples):
        fresh = sim.prepare_basis(int(sim._rng.integers(2)))
        a, b = sim.prepare_bell(BellKind(int(sim._rng.integers(4))))
        counts[sim.measure_bell(fresh, b)] += 1
    for kind in BellKind:
        assert abs(counts[kind] / samples - 0.25) < oracles.four_sigma(0.25, samples)


def test_bell_measurement_collapses_register():
    sim = Simulator(seed=43)
    a, b = sim.prepare_basis(0), sim.prepare_basis(1)
    kind = sim.measure_bell(a, b)
    assert sim.measure_bell(a, b) == kind  # eigenstate after collapse


def test_bell_measurement_merges_when_needed():
    sim = Simulator(seed=44)
    a, b = sim.prepare_basis(1), sim.prepare_basis(1)
    assert not sim.same_register(a, b)
    sim.measure_bell(a, b)
    assert sim.same_register(a, b)


# -- global invariants --------------------------------------------------------


def test_norm_preserved_over_random_walk():
    """Random operation sequences keep ||psi|| == 1; any drift raises."""
    rng = np.random.default_rng(55)
    ops = 0
    while ops < 20_000:
        sim = Simulator(seed=int(rng.integers(2**31)))
        a, b = sim.prepare_bell(BellKind(int(rng.integers(4))))
        q = sim.prepare_basis(int(rng.integers(2)))
        sim.merge(q, a)
        sim.measure_z(b)
        sim.measure_bell(q, a)
        sim.measure_z(q)
        ops += 7


def test_determinism_under_seed():
    """Identical seed and operation sequence give identical outcomes."""

    def run(seed):
        sim = Simulator(seed=seed)
        trace = []
        for _ in range(200):
            a, b = sim.prepare_bell(BellKind.PSI_PLUS)
            trace.append(sim.measure_z(a))
            trace.append(sim.measure_bell(a, b).value)
            q0, q1 = sim.prepare_basis(0), sim.prepare_basis(1)
            sim.merge(q0, q1)
            trace.append(sim.measure_z(q1))
        return trace

    assert run(123) == run(123)
    assert run(123) != run(124)  # astronomically unlikely to collide


def test_shared_generator_between_simulators():
    rng = np.random.default_rng(9)
    sim = Simulator(rng)
    a, _ = sim.prepare_bell(BellKind.PHI_PLUS)
    assert sim.measure_z(a) in (0, 1)


# -- interned states ----------------------------------------------------------


def _random_walk(seed, steps, clear_at=None):
    """Seeded random operations over a pool of live qubits.

    Returns, per step, the op's result and the exact amplitude bytes of the
    registers of the pool. Empties the intern table before step `clear_at`.
    """
    sim = Simulator(seed=seed)
    rng = np.random.default_rng(seed + 1)
    pool = []
    trace = []
    for step in range(steps):
        if step == clear_at:
            qsim._STATES.clear()
        op = int(rng.integers(5)) if pool else int(rng.integers(2))
        result = None
        try:
            if op == 0:
                pool.append(sim.prepare_basis(int(rng.integers(2))))
            elif op == 1:
                pool.extend(sim.prepare_bell(BellKind(int(rng.integers(4)))))
            elif op == 2:
                a, b = rng.integers(len(pool), size=2)
                sim.merge(pool[a], pool[b])
            elif op == 3:
                result = sim.measure_z(pool[int(rng.integers(len(pool)))])
            else:
                a, b = rng.integers(len(pool), size=2)
                result = sim.measure_bell(pool[a], pool[b])
        except (CapacityExceeded, SameRegister, InvalidHandle) as exc:
            result = type(exc).__name__
        pool = pool[-6:]
        trace.append((result, [sim.amplitudes(q).tobytes() for q in pool]))
    return trace


def test_emptying_intern_table_midway_changes_nothing():
    """Registers holding states dropped from the table behave the same."""
    for seed in (1, 2, 3):
        qsim._STATES.clear()
        uninterrupted = _random_walk(seed, 600)
        qsim._STATES.clear()
        interrupted = _random_walk(seed, 600, clear_at=300)
        assert interrupted == uninterrupted


def test_intern_table_stays_within_bound(monkeypatch):
    bound = 8
    monkeypatch.setattr(qsim, "MAX_INTERNED_STATES", bound)
    qsim._STATES.clear()
    seen = set()
    for seed in range(40):
        _random_walk(seed, 50)
        assert len(qsim._STATES) <= bound
        seen.update(qsim._STATES)
    assert len(seen) > bound  # the walk overflowed the table


def test_equal_vectors_share_one_state():
    """Amplitudes of -0.0 and 0.0 intern as one state, so the table holds
    each vector once."""
    qsim._STATES.clear()
    for seed in range(5):
        _random_walk(seed, 200)
    vectors = {(s.num_qubits, tuple(s.amplitudes.tolist())) for s in qsim._STATES.values()}
    assert len(vectors) == len(qsim._STATES) > 50


def test_amplitudes_are_a_writable_copy():
    """Editing a copy touches neither its register nor other Simulators."""
    first, second = Simulator(seed=0), Simulator(seed=1)
    a, _ = first.prepare_bell(BellKind.PHI_PLUS)
    b, _ = second.prepare_bell(BellKind.PHI_PLUS)
    amps = first.amplitudes(a)
    amps[0] = 5.0
    for sim, q in ((first, a), (second, b)):
        assert np.allclose(sim.amplitudes(q), [SQRT2_INV, 0, 0, SQRT2_INV])


# -- measurement against independent projectors -------------------------------


def _projector(num_qubits, factors):
    """kron over the register's qubits, in order, of the 2x2 operator that
    `factors` gives for a position (identity elsewhere)."""
    op = np.ones((1, 1))
    for q in range(num_qubits):
        op = np.kron(op, factors.get(q, np.eye(2)))
    return op


def _outer(i, k):
    """|i><k| on one qubit."""
    op = np.zeros((2, 2))
    op[i, k] = 1.0
    return op


def _bell_projector(num_qubits, a, b, kind):
    """|beta><beta| on qubits (a, b), expanded over the basis states
    |ij> of the pair so no axis is ever permuted."""
    beta = {
        BellKind.PHI_PLUS: {(0, 0): 1, (1, 1): 1},
        BellKind.PHI_MINUS: {(0, 0): 1, (1, 1): -1},
        BellKind.PSI_PLUS: {(0, 1): 1, (1, 0): 1},
        BellKind.PSI_MINUS: {(0, 1): 1, (1, 0): -1},
    }[kind]
    return sum(
        0.5 * c * d * _projector(num_qubits, {a: _outer(i, k), b: _outer(j, l)})
        for (i, j), c in beta.items()
        for (k, l), d in beta.items()
    )


def _check_outcomes(state, positions, basis, projectors):
    weights, posts = qsim._measure(state, positions, basis)
    psi = state.amplitudes
    for weight, post, projector in zip(weights, posts, projectors):
        projected = projector @ psi
        expected = float(np.vdot(projected, projected).real)
        assert abs(weight - expected) < 1e-12
        if expected > 1e-12:  # below, a post-state is rounding noise, normalized
            assert np.abs(post.amplitudes - projected / np.sqrt(expected)).max() < 1e-12


@pytest.mark.parametrize("num_qubits", [3, 4])
def test_measurements_match_independent_projectors(num_qubits):
    """Every Z measurement (each position) and Bell measurement (each
    ordered pair) of the 3- and 4-qubit states the random walks reach gives
    the weights and post-states of projectors built with np.kron."""
    vectors = {
        amps
        for seed in range(12)
        for _, pool in _random_walk(seed, 200)
        for amps in pool
        if len(amps) == 8 << num_qubits  # float64: 8 bytes per amplitude
    }
    assert len(vectors) >= 10
    n = num_qubits
    measurements = [
        ((pos,), qsim._Z_BASIS, [_projector(n, {pos: _outer(k, k)}) for k in (0, 1)])
        for pos in range(n)
    ] + [
        ((a, b), qsim._BELL_BASIS, [_bell_projector(n, a, b, kind) for kind in BellKind])
        for a in range(n)
        for b in range(n)
        if a != b
    ]
    for amps in sorted(vectors):
        state = qsim._intern(n, np.frombuffer(amps))
        for positions, basis, projectors in measurements:
            _check_outcomes(state, positions, basis, projectors)
