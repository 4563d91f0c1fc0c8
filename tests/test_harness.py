"""Tests for the experiment runner, aggregation, and analytic oracles."""
from fractions import Fraction

import pytest

from sqpclab.harness import (
    DEFAULT_ROUNDS_FACTOR,
    AggregateReport,
    ExperimentSpec,
    ValidationError,
    analytic_detection_outside,
    analytic_detection_participant,
    binomial_stderr,
    bits_from_hex,
    run_experiment,
    run_trial,
    tp_inference_test,
    wrong_result_model_jiang_outside,
)

import oracles


# -- analytic formulas ---------------------------------------------------------


def test_outside_detection_formula():
    assert analytic_detection_outside(0, 0) == 0.0
    assert analytic_detection_outside(1, 1) == 0.75
    assert analytic_detection_outside(20, 20) >= 1.0 - 1e-12
    with pytest.raises(ValueError):
        analytic_detection_outside(-1, 0)


def test_participant_detection_formula():
    assert analytic_detection_participant(0) == 0.0
    assert analytic_detection_participant(1) == 0.5
    assert analytic_detection_participant(10) == 0.9990234375
    with pytest.raises(ValueError):
        analytic_detection_participant(-2)


def test_wrong_result_model():
    assert wrong_result_model_jiang_outside(0) == 0.0
    assert wrong_result_model_jiang_outside(1) == 0.5
    assert wrong_result_model_jiang_outside(1) == pytest.approx(
        oracles.jiang_outside_wrong_result_single_bit()
    )
    assert wrong_result_model_jiang_outside(8) == pytest.approx(1.0 - 1.0 / 256)


def test_binomial_stderr():
    assert binomial_stderr(0.5, 100) == pytest.approx(0.05)
    assert binomial_stderr(0.3, 0) == 0.0


# -- spec handling ---------------------------------------------------------------


def test_default_rounds_factor_resolution():
    assert ExperimentSpec(protocol="jiang").resolved_rounds_factor() == (
        DEFAULT_ROUNDS_FACTOR["jiang"]
    )
    assert ExperimentSpec(protocol="improved").resolved_rounds_factor() == (
        DEFAULT_ROUNDS_FACTOR["improved"]
    )
    assert ExperimentSpec(protocol="jiang", rounds_factor=9).num_rounds() == 72


def test_bits_from_hex():
    assert bits_from_hex("AF", 8) == (1, 0, 1, 0, 1, 1, 1, 1)
    assert bits_from_hex("1", 3) == (0, 0, 1)
    with pytest.raises(ValidationError):
        bits_from_hex("zz", 4)
    with pytest.raises(ValidationError):
        bits_from_hex("FF", 4)  # does not fit
    for bad in ("A_F", "0x1", " 1", "+1", ""):  # int(text, 16) accepts most
        with pytest.raises(ValidationError):
            bits_from_hex(bad, 8)


def test_explicit_secrets_parse():
    spec = ExperimentSpec(protocol="jiang", secrets="explicit:AF,0F")
    x, y = spec.explicit_secrets()
    assert x == (1, 0, 1, 0, 1, 1, 1, 1)
    assert y == (0, 0, 0, 0, 1, 1, 1, 1)
    assert ExperimentSpec(protocol="jiang").explicit_secrets() is None
    with pytest.raises(ValidationError):
        ExperimentSpec(protocol="jiang", secrets="explicit:AF").validate()
    with pytest.raises(ValidationError):
        ExperimentSpec(protocol="jiang", secrets="sideways").validate()


def test_spec_validation_ranges():
    ExperimentSpec(protocol="improved").validate()
    for bad in (
        dict(protocol="quantum"),
        dict(protocol="jiang", attack="evil"),
        dict(protocol="jiang", secret_bits=0),
        dict(protocol="jiang", rounds_factor=0),
        dict(protocol="jiang", p_ctrl=1.5),
        dict(protocol="jiang", p_detect=-0.1),
        dict(protocol="jiang", trials=0),
        dict(protocol="jiang", threshold=2.0),
        dict(protocol="jiang", seed=-1),
    ):
        with pytest.raises(ValidationError):
            ExperimentSpec(**bad).validate()


@pytest.mark.parametrize("field", ["secret_bits", "trials", "rounds_factor", "seed"])
@pytest.mark.parametrize("value", [True, 2.5, 2.0, "3"])
def test_spec_rejects_non_integer_counts(field, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        ExperimentSpec(protocol="jiang", **{field: value}).validate()


def test_spec_round_trip():
    spec = ExperimentSpec(protocol="improved", attack="outside", seed=5)
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_validates():
    data = ExperimentSpec(protocol="jiang").to_dict()
    for field, value in (("seed", -1), ("trials", 2.5), ("secret_bits", True)):
        with pytest.raises(ValidationError):
            ExperimentSpec.from_dict({**data, field: value})


# -- trial generation -------------------------------------------------------------


def test_secret_modes():
    equal = ExperimentSpec(protocol="jiang", secrets="equal", secret_bits=6)
    unequal = ExperimentSpec(protocol="jiang", secrets="unequal", secret_bits=6)
    for t in range(30):
        assert run_trial(equal, t).verdict_correct is not False
    # unequal secrets must give NotEqual whenever the run completes
    for t in range(30):
        report = run_trial(unequal, t)
        if not report.outcome.aborted:
            assert report.outcome.equal is False
            assert report.verdict_correct is True


def test_unequal_mode_at_one_bit():
    spec = ExperimentSpec(protocol="jiang", secrets="unequal", secret_bits=1, trials=20)
    report = run_experiment(spec)
    assert report.wrong_result_rate == 0.0


# -- experiments -------------------------------------------------------------------


def test_honest_experiment_rates():
    spec = ExperimentSpec(protocol="jiang", trials=300, secret_bits=4, seed=2)
    report = run_experiment(spec)
    assert report.detection_rate == 0.0
    assert report.wrong_result_rate == 0.0
    assert report.case1_errors_total == 0
    assert report.secret_recovery_rate is None
    assert report.detection_by_trap_count == []


def test_participant_experiment_recovers_and_stays_hidden():
    spec = ExperimentSpec(
        protocol="jiang", attack="participant", trials=300, secret_bits=4, seed=3
    )
    report = run_experiment(spec)
    assert report.detection_rate == 0.0
    assert report.secret_recovery_rate == 1.0


def test_recovery_field_is_null_outside_jiang_participant():
    spec = ExperimentSpec(
        protocol="improved", attack="participant", trials=50, secret_bits=2, seed=3
    )
    assert run_experiment(spec).secret_recovery_rate is None
    spec = ExperimentSpec(
        protocol="jiang", attack="outside", trials=50, secret_bits=2, seed=3
    )
    assert run_experiment(spec).secret_recovery_rate is None


def test_detection_table_structure():
    spec = ExperimentSpec(
        protocol="improved", attack="outside", trials=400, secret_bits=2, seed=7
    )
    report = run_experiment(spec)
    rows = report.detection_by_trap_count
    assert rows == sorted(rows, key=lambda r: r.k)
    assert sum(r.trials for r in rows) == report.trials
    for row in rows:
        assert row.predicted == analytic_detection_outside(row.k, 0)
        assert 0.0 <= row.detection_rate <= 1.0


def test_reproducibility_bit_identical():
    spec = ExperimentSpec(
        protocol="improved", attack="measure-resend", trials=120, secret_bits=2, seed=11
    )
    assert run_experiment(spec).to_dict() == run_experiment(spec).to_dict()


def test_stderr_shrinks_with_trials():
    """Quadrupling trials about halves the binomial standard error."""
    small = run_experiment(
        ExperimentSpec(protocol="jiang", attack="measure-resend",
                       trials=100, secret_bits=2, seed=13)
    )
    large = run_experiment(
        ExperimentSpec(protocol="jiang", attack="measure-resend",
                       trials=10_000, secret_bits=2, seed=13)
    )
    assert 0.0 < large.detection_stderr < small.detection_stderr
    ratio = small.detection_stderr / large.detection_stderr
    assert 5.0 < ratio < 20.0  # nominal factor 10 at T = 10^2 vs 10^4


def test_aggregate_report_round_trip():
    spec = ExperimentSpec(
        protocol="improved", attack="outside", trials=60, secret_bits=2, seed=1
    )
    report = run_experiment(spec)
    assert AggregateReport.from_dict(report.to_dict()) == report


@pytest.mark.parametrize(
    "path, value",
    [
        (("trials",), -5),
        (("trials",), 0),
        (("trials",), 2.5),
        (("completed_trials",), True),
        (("case1_rounds_total",), "7"),
        (("detection_rate",), 7.0),
        (("abort_rate",), -0.1),
        (("detection_stderr",), None),
        (("wrong_result_rate",), float("nan")),
        (("secret_recovery_rate",), 1.5),
        (("completed_trials",), 61),
        (("case1_errors_total",), 10**6),
        (("detection_by_trap_count", 0, "detected"), 10**6),
        (("detection_by_trap_count", 0, "trials"), 0),
        (("detection_by_trap_count", 0, "k"), -1),
        (("detection_by_trap_count", 0, "predicted"), 2.0),
        (("detection_by_trap_count", 0), [1, 2, 3]),
        (("detection_by_trap_count", 0, "extra"), 1),
        (("spec", "trials"), -5),
        (("spec",), None),
    ],
)
def test_aggregate_report_from_dict_validates(path, value):
    """Counts, rates, their consistency and the trap rows are all checked."""
    spec = ExperimentSpec(
        protocol="improved", attack="outside", trials=60, secret_bits=2, seed=1
    )
    data = run_experiment(spec).to_dict()
    AggregateReport.from_dict(data)  # the untouched report loads
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValidationError):
        AggregateReport.from_dict(data)


def test_aggregate_report_from_dict_rejects_missing_field():
    data = run_experiment(ExperimentSpec(protocol="jiang", trials=5)).to_dict()
    del data["case1_error_rate"]
    with pytest.raises(ValidationError):
        AggregateReport.from_dict(data)


def test_default_rounds_factor_shortfall_tails():
    """The default factors keep the exact InsufficientRounds probability at
    L=8 below 1e-4, and one factor less would not (README quotes the tails)."""
    p_calc = {"jiang": Fraction(1, 2), "improved": Fraction(1, 4)}
    quoted = {"jiang": "4.2277e-05", "improved": "7.7771e-05"}
    for protocol, factor in DEFAULT_ROUNDS_FACTOR.items():
        spec = ExperimentSpec(protocol=protocol)
        assert spec.num_rounds() == factor * 8
        tail = oracles.insufficient_rounds_probability(
            spec.num_rounds(), p_calc[protocol], 8
        )
        assert f"{tail:.4e}" == quoted[protocol]
        fewer = oracles.insufficient_rounds_probability(
            (factor - 1) * 8, p_calc[protocol], 8
        )
        assert tail < 1e-4 <= fewer


def test_insufficient_rounds_are_not_detections():
    spec = ExperimentSpec(
        protocol="jiang", trials=200, secret_bits=4, rounds_factor=1, seed=5
    )
    report = run_experiment(spec)
    assert report.insufficient_rounds_rate > 0.3
    assert report.detection_rate == 0.0
    assert report.abort_rate == report.insufficient_rounds_rate


# -- semi-honest TP inference -------------------------------------------------------


def test_tp_inference_deviation_is_zero():
    assert tp_inference_test(1) == 0.0
    assert tp_inference_test(2) == 0.0


def test_tp_inference_with_public_key_pins_the_secret():
    assert tp_inference_test(1, public_key=True) == 0.5
    assert tp_inference_test(2, public_key=True) == 0.5


def test_tp_inference_rejects_oversized_enumeration():
    with pytest.raises(ValueError):
        tp_inference_test(5)
