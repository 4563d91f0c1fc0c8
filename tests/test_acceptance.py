"""Acceptance suite: one test per criterion, one printed line per criterion.

Monte Carlo comparisons run at T = 10^4 with fixed seeds and 4-standard-
deviation binomial bands around analytic values, so every test below is
deterministic. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""
import itertools
import json

import numpy as np
import pytest

from sqpclab.cli import main
from sqpclab.harness import (
    DEFAULT_ROUNDS_FACTOR,
    ExperimentSpec,
    run_experiment,
)
from sqpclab.protocol import (
    ProtocolConfig,
    Variant,
    compute_ma_jiang,
    compute_mask_improved,
    compute_r,
    run_protocol,
)
from sqpclab.qsim import BellKind, Simulator

import oracles

TRIALS = 10_000


def _finish(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num:02d}: {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _check_cells(rows, failures, min_samples=100):
    """Conditional detection rates must sit inside the 4-sigma band of the
    analytic prediction; degenerate predictions must match exactly."""
    checked = 0
    for row in rows:
        if row.trials < min_samples:
            continue
        checked += 1
        p = row.predicted
        if p in (0.0, 1.0):
            if row.detection_rate != p:
                failures.append(f"k={row.k}: rate {row.detection_rate} != {p}")
            continue
        tol = oracles.four_sigma(p, row.trials)
        if abs(row.detection_rate - p) > tol:
            failures.append(
                f"k={row.k}: |{row.detection_rate:.4f} - {p:.4f}| > {tol:.4f}"
            )
    if checked == 0:
        failures.append("no conditioning cells reached the sample floor")


def _int_to_bits(value: int, length: int) -> tuple[int, ...]:
    return tuple((value >> (length - 1 - i)) & 1 for i in range(length))


def test_criterion_01_honest_correctness():
    failures = []

    # Exhaustive secrets at L <= 3 with a round budget that makes a shortfall
    # impossible in practice (the default-budget clause is checked below).
    for variant in Variant:
        factor = 48
        for L in (1, 2, 3):
            rng = np.random.default_rng(L)
            for xv, yv in itertools.product(range(2**L), repeat=2):
                x, y = _int_to_bits(xv, L), _int_to_bits(yv, L)
                bits = lambda: tuple(int(v) for v in rng.integers(0, 2, size=L))
                cfg = ProtocolConfig(
                    x, y, bits(), bits(), bits(), num_rounds=factor * L
                )
                for seed in (xv * 64 + yv, 4096 + yv * 64 + xv):
                    outcome, _, _ = run_protocol(variant, cfg, seed=seed)
                    if outcome.aborted:
                        failures.append(f"{variant.value} L={L} aborted")
                    elif outcome.equal != (x == y):
                        failures.append(
                            f"{variant.value} L={L} x={xv} y={yv}: wrong verdict"
                        )

    # Random secrets at L = 8, default round factors, T = 10^4 per variant.
    for protocol in ("jiang", "improved"):
        report = run_experiment(
            ExperimentSpec(protocol=protocol, secret_bits=8, trials=TRIALS, seed=101)
        )
        if report.detection_rate != 0.0:
            failures.append(f"{protocol}: honest run had security aborts")
        if report.wrong_result_rate != 0.0:
            failures.append(
                f"{protocol}: wrong verdicts at rate {report.wrong_result_rate}"
            )
        if report.insufficient_rounds_rate > 0.001:
            failures.append(
                f"{protocol}: InsufficientRounds rate "
                f"{report.insufficient_rounds_rate} exceeds 0.1%"
            )

    _finish(1, "honest verdicts match ground truth for both variants", failures)


def test_criterion_02_xor_algebra_oracles():
    failures = []
    for x, y, k, ra, rb in itertools.product((0, 1), repeat=5):
        ma = compute_ma_jiang(k, ra, x)
        mb = compute_ma_jiang(k, rb, y)
        if compute_r(ma, mb, ra, rb) != x ^ y:
            failures.append(f"jiang chain broke at {(x, y, k, ra, rb)}")
    for x, y, k, ra, rb, ma, mb in itertools.product((0, 1), repeat=7):
        mask_a = compute_mask_improved(k, ra, x, ma)
        mask_b = compute_mask_improved(k, rb, y, mb)
        if compute_r(ma, mb, mask_a, mask_b) != x ^ y:
            failures.append(f"improved chain broke at {(x, y, k, ra, rb, ma, mb)}")
    for k, ra, x, ma in itertools.product((0, 1), repeat=4):
        if compute_mask_improved(k, ra, x, ma) != compute_mask_improved(k, 1 - ra, x, ma):
            failures.append(f"mask depends on ra at {(k, x, ma)}")
    _finish(2, "XOR chains reproduce x^y exhaustively, masks ignore raw keys", failures)


def test_criterion_03_outside_attack_vs_jiang():
    report = run_experiment(
        ExperimentSpec(
            protocol="jiang", attack="outside", secret_bits=8,
            secrets="equal", trials=TRIALS, seed=31,
        )
    )
    failures = []
    if report.detection_rate != 0.0:
        failures.append(f"detected at rate {report.detection_rate}")
    # Each of the 8 comparison values is nonzero independently.
    predicted = 1.0 - (1.0 - oracles.jiang_outside_wrong_result_single_bit()) ** 8
    tol = oracles.four_sigma(predicted, report.completed_trials)
    if abs(report.wrong_result_rate - predicted) > tol:
        failures.append(
            f"wrong-result rate {report.wrong_result_rate:.5f} vs {predicted:.5f}"
        )
    _finish(3, "full swap on jiang stays invisible and corrupts the verdict", failures)


def test_criterion_04_participant_attack_vs_jiang():
    report = run_experiment(
        ExperimentSpec(
            protocol="jiang", attack="participant", secret_bits=8,
            trials=TRIALS, seed=41,
        )
    )
    failures = []
    if report.detection_rate != 0.0:
        failures.append(f"detected at rate {report.detection_rate}")
    if report.secret_recovery_rate != 1.0:
        failures.append(f"recovery rate {report.secret_recovery_rate} != 1.0")
    _finish(4, "malicious Bob reads the secret from jiang undetected", failures)


def test_criterion_05_outside_attack_vs_improved():
    failures = []
    # Small secrets populate the low trap counts where the formula has teeth.
    small = run_experiment(
        ExperimentSpec(
            protocol="improved", attack="outside", secret_bits=1,
            trials=TRIALS, seed=51,
        )
    )
    _check_cells(small.detection_by_trap_count, failures)

    full = run_experiment(
        ExperimentSpec(
            protocol="improved", attack="outside", secret_bits=8,
            trials=TRIALS, seed=52,
        )
    )
    _check_cells(full.detection_by_trap_count, failures)
    if full.detection_rate < 0.999:
        failures.append(f"marginal detection {full.detection_rate} < 0.999")
    _finish(5, "trap checks catch the swap attack at 1 - (1/2)^(n+m)", failures)


def test_criterion_06_participant_attack_vs_improved():
    report = run_experiment(
        ExperimentSpec(
            protocol="improved", attack="participant", secret_bits=2,
            trials=TRIALS, seed=61,
        )
    )
    failures = []
    _check_cells(report.detection_by_trap_count, failures)
    _finish(6, "Alice's traps catch malicious Bob at 1 - (1/2)^n", failures)


@pytest.mark.parametrize(
    "attack, error_rate",
    [("intercept-resend", 0.75), ("measure-resend", 0.5)],
    ids=["intercept-resend", "measure-resend"],
)
def test_criterion_07_resend_attacks(attack, error_rate):
    oracle = (
        oracles.intercept_resend_case1_error()
        if attack == "intercept-resend"
        else oracles.measure_resend_case1_error()
    )
    assert oracle == pytest.approx(error_rate)

    report = run_experiment(
        ExperimentSpec(
            protocol="jiang", attack=attack, secret_bits=2, trials=TRIALS, seed=71,
        )
    )
    failures = []
    tol = oracles.four_sigma(error_rate, report.case1_rounds_total)
    if abs(report.case1_error_rate - error_rate) > tol:
        failures.append(
            f"case-1 error rate {report.case1_error_rate:.4f} vs {error_rate}"
        )
    _check_cells(report.detection_by_trap_count, failures)
    _finish(7, f"{attack} shows error rate {error_rate} and 1-(1-e)^c detection", failures)


def test_criterion_08_semi_honest_tp_leakage():
    failures = []
    for L in (1, 2, 3):
        deviation = oracles.tp_inference_test(L)
        if deviation != 0.0:
            failures.append(f"L={L}: posterior deviation {deviation}")
    if oracles.tp_inference_test(2, public_key=True) != 0.5:
        failures.append("degenerate check: public key should pin the secret")
    _finish(8, "TP's view leaves every secret bit exactly uniform", failures)


def test_criterion_09_simulator_physics():
    failures = []
    samples = 100_000

    # Z eigenstates are deterministic.
    sim = Simulator(seed=900)
    for bit in (0, 1):
        if any(sim.measure_z(sim.prepare_basis(bit)) != bit for _ in range(samples // 2)):
            failures.append(f"|{bit}> did not measure to {bit}")

    # Bell halves: uniform marginal, exact correlation by parity.
    sim = Simulator(seed=901)
    hits = 0
    for _ in range(samples):
        a, b = sim.prepare_bell(BellKind.PHI_PLUS)
        za, zb = sim.measure_z(a), sim.measure_z(b)
        hits += za
        if za != zb:
            failures.append("phi+ halves disagreed")
            break
    if abs(hits / samples - 0.5) > oracles.four_sigma(0.5, samples):
        failures.append(f"phi+ marginal {hits / samples}")

    sim = Simulator(seed=902)
    for _ in range(samples // 4):
        a, b = sim.prepare_bell(BellKind.PSI_MINUS)
        if sim.measure_z(a) == sim.measure_z(b):
            failures.append("psi- halves agreed")
            break

    # Bell measurement of fresh pairs is an eigenmeasurement.
    sim = Simulator(seed=903)
    for kind in BellKind:
        for _ in range(samples // 40):
            a, b = sim.prepare_bell(kind)
            if sim.measure_bell(a, b) != kind:
                failures.append(f"{kind} eigenmeasurement failed")
                break

    # Product state |01> resolves into the Psi pair, half and half.
    sim = Simulator(seed=904)
    counts = dict.fromkeys(BellKind, 0)
    for _ in range(samples):
        counts[sim.measure_bell(sim.prepare_basis(0), sim.prepare_basis(1))] += 1
    if counts[BellKind.PHI_PLUS] or counts[BellKind.PHI_MINUS]:
        failures.append("|01> produced a Phi outcome")
    for kind in (BellKind.PSI_PLUS, BellKind.PSI_MINUS):
        if abs(counts[kind] / samples - 0.5) > oracles.four_sigma(0.5, samples):
            failures.append(f"|01> {kind} frequency {counts[kind] / samples}")

    # Forgery against a live half: uniform over all four outcomes.
    sim = Simulator(seed=905)
    counts = dict.fromkeys(BellKind, 0)
    for _ in range(samples):
        fresh = sim.prepare_basis(int(sim._rng.integers(2)))
        _, half = sim.prepare_bell(BellKind(int(sim._rng.integers(4))))
        counts[sim.measure_bell(fresh, half)] += 1
    for kind in BellKind:
        if abs(counts[kind] / samples - 0.25) > oracles.four_sigma(0.25, samples):
            failures.append(f"fresh-vs-half {kind} frequency {counts[kind] / samples}")

    # Merging does not disturb marginals.
    sim = Simulator(seed=906)
    merged_hits = 0
    for _ in range(samples):
        a, _ = sim.prepare_bell(BellKind.PSI_PLUS)
        q = sim.prepare_basis(1)
        sim.merge(a, q)
        merged_hits += sim.measure_z(a)
    if abs(merged_hits / samples - 0.5) > oracles.four_sigma(0.5, samples):
        failures.append(f"merged marginal {merged_hits / samples}")

    # Parity law, all kinds, zero exceptions.
    sim = Simulator(seed=907)
    for kind in BellKind:
        for _ in range(samples // 4):
            a, b = sim.prepare_bell(kind)
            if sim.measure_z(a) ^ sim.measure_z(b) != kind.parity:
                failures.append(f"parity law broke for {kind}")
                break

    # Norm preservation across 10^6 random operations; any drift raises.
    rng = np.random.default_rng(908)
    ops = 0
    try:
        while ops < 1_000_000:
            sim = Simulator(seed=int(rng.integers(2**63)))
            a, b = sim.prepare_bell(BellKind(int(rng.integers(4))))
            q = sim.prepare_basis(int(rng.integers(2)))
            ops += 2
            branch = rng.random()
            if branch < 0.35:
                sim.measure_z(a)
                sim.measure_z(b)
                sim.measure_z(q)
                ops += 3
            elif branch < 0.7:
                sim.merge(q, a)
                sim.measure_bell(q, b)
                sim.measure_z(a)
                ops += 3
            else:
                sim.measure_bell(a, b)
                c, d = sim.prepare_bell(BellKind(int(rng.integers(4))))
                sim.merge(c, q)
                sim.measure_z(d)
                sim.measure_bell(c, q)
                ops += 5
    except Exception as exc:  # any QsimError here is a norm failure
        failures.append(f"random walk raised {exc!r} after {ops} operations")

    _finish(9, "Born-rule frequencies, parity law, and norm preservation", failures)


def test_criterion_10_cli_determinism(capsys):
    argv = [
        "--protocol", "improved", "--attack", "outside", "--secret-bits", "2",
        "--trials", "300", "--seed", "7", "--output", "json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    failures = []
    if first.encode() != second.encode():
        failures.append("repeated invocation changed the JSON bytes")
    if not json.loads(first)["detection_by_trap_count"]:
        failures.append("expected a populated trap table in the output")
    _finish(10, "identical invocations emit byte-identical JSON", failures)
