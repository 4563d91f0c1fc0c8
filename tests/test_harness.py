"""Tests for the experiment runner, aggregation, and analytic oracles."""
import itertools
import json
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, asdict, fields, replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from sqpclab import batch, harness
from sqpclab.adversary import ATTACKS
from sqpclab.batch import Lanes
from sqpclab.harness import (
    DEFAULT_ROUNDS_FACTOR,
    SECRET_MODES,
    AggregateReport,
    ExperimentSpec,
    TrapCountRow,
    ValidationError,
    binomial_stderr,
    bits_from_hex,
    fold_report,
    run_experiment,
    run_trial,
)
from sqpclab.cli import emit_report
from sqpclab.protocol import ProtocolConfig, Variant, run_protocol

import oracles


# -- statistics -----------------------------------------------------------------


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
        ExperimentSpec(protocol="jiang", secrets="explicit:AF")
    with pytest.raises(ValidationError):
        ExperimentSpec(protocol="jiang", secrets="sideways")


def test_spec_validation_ranges():
    ExperimentSpec(protocol="improved")
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
            ExperimentSpec(**bad)


def test_spec_accepts_only_the_default_p_detect_for_jiang():
    assert ExperimentSpec(protocol="jiang", p_detect=0.5).p_detect == 0.5
    assert ExperimentSpec(protocol="improved", p_detect=0.3).p_detect == 0.3
    for value in (0.0, 0.3, 1.0):
        with pytest.raises(
            ValidationError, match="^--p-detect is not accepted for the jiang protocol$"
        ):
            ExperimentSpec(protocol="jiang", p_detect=value)


@pytest.mark.parametrize("field", ["secret_bits", "trials", "rounds_factor", "seed"])
@pytest.mark.parametrize("value", [True, 2.5, 2.0, "3"])
def test_spec_rejects_non_integer_counts(field, value):
    with pytest.raises(ValidationError, match="must be an integer"):
        ExperimentSpec(protocol="jiang", **{field: value})


def test_spec_round_trip():
    spec = ExperimentSpec(protocol="improved", attack="outside", seed=5)
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_validates():
    data = ExperimentSpec(protocol="jiang").to_dict()
    for field, value in (("seed", -1), ("trials", 2.5), ("secret_bits", True)):
        with pytest.raises(ValidationError):
            ExperimentSpec.from_dict({**data, field: value})


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExperimentSpec.from_dict({"protocol": "jiang", "bogus": 1}),
        lambda: ExperimentSpec.from_dict({"attack": "outside"}),  # no protocol
        lambda: ExperimentSpec(protocol="jiang", threshold=None),
        lambda: ExperimentSpec(protocol="jiang", p_ctrl="x"),
        lambda: ExperimentSpec(protocol="improved", p_detect=None),
        lambda: ExperimentSpec(protocol="improved", p_detect=[0.5]),
        lambda: ExperimentSpec.from_dict({"protocol": "jiang", "attack": []}),
        lambda: ExperimentSpec.from_dict({"protocol": "jiang", "secrets": None}),
    ],
    ids=["unknown-key", "missing-key", "threshold-none", "p-ctrl-str",
         "p-detect-none", "p-detect-list", "attack-list", "secrets-none"],
)
def test_spec_malformed_input_raises_validation_error(build):
    with pytest.raises(ValidationError):
        build()


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


def test_explicit_secrets_are_decoded_once_per_experiment(monkeypatch):
    """Running an experiment of one chunk parses each hex secret once,
    however many trials the chunk holds: the batched engine decodes the
    secrets per chunk, not per trial."""
    pattern, parsed = harness._HEX_DIGITS, []

    class CountingPattern:
        def fullmatch(self, text):
            parsed.append(text)
            return pattern.fullmatch(text)

    monkeypatch.setattr(harness, "_HEX_DIGITS", CountingPattern())
    counts = []
    for trials in (1, 40):
        spec = ExperimentSpec(protocol="jiang", secrets="explicit:A5,3C", trials=trials)
        parsed.clear()  # the spec's own check parsed them once
        run_experiment(spec)
        counts.append(len(parsed))
    assert counts == [2, 2]


# -- experiments -------------------------------------------------------------------


def test_honest_experiment_rates():
    spec = ExperimentSpec(protocol="jiang", trials=300, secret_bits=4, seed=2)
    report = run_experiment(spec)
    assert report.detection_rate == 0.0
    assert report.wrong_result_rate == 0.0
    assert report.case1_errors_total == 0
    assert report.secret_recovery_rate is None
    assert report.detection_by_trap_count == ()


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
    assert list(rows) == sorted(rows, key=lambda r: r.k)
    assert sum(r.trials for r in rows) == report.trials
    for row in rows:
        assert row.predicted == 1.0 - 0.5**row.k
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


def test_experiment_memory_does_not_grow_with_trials():
    """Trials are folded into counts as they finish: ten times the trials
    must not raise the peak traced memory of an experiment. Both runs fill
    whole chunks, so only the trial count differs between them."""
    block = batch.SEED_BLOCK

    def peak(trials: int) -> int:
        tracemalloc.start()
        try:
            run_experiment(ExperimentSpec(protocol="jiang", secret_bits=1, trials=trials))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Untraced warm-up at the measured size: fills the simulator's
    # interned-state table and the allocator's pools before either peak is
    # taken, so the result does not depend on which tests ran before.
    run_experiment(ExperimentSpec(protocol="jiang", secret_bits=1, trials=10 * block))
    grown = peak(10 * block) - peak(block)
    print(f"peak grew {grown:,} bytes with ten times the trials, {64 * 1024:,} allowed")
    assert grown <= 64 * 1024


# -- the fold ---------------------------------------------------------------------


def _lanes(reason, correct, n, m, case1_rounds, case1_errors, recovered) -> Lanes:
    """Hand-made report fields, one list entry a lane; reason codes index
    `batch.REASONS`: 0 completed, 1 Bell check, 2 trap check, 3 short."""
    size = len(reason)
    return Lanes(
        np.array(reason, np.int8), np.zeros(size, np.int32), np.array(correct, bool),
        np.array(n, np.int32), np.array(m, np.int32), np.array(case1_rounds, np.int32),
        np.array(case1_errors, np.int32), np.zeros(size, np.int32), np.array(recovered, np.int8),
    )


def _case1_chunks():
    """Six jiang intercept-resend trials in two chunks: case-1 rounds k = 2
    and 5, each detected once and passed twice (once by a short abort)."""
    yield _lanes([0, 1, 0], [True, False, False], [3, 1, 2], [0, 4, 1],
                 [2, 2, 5], [0, 1, 0], [-1, -1, -1])
    yield _lanes([1, 3, 0], [False, False, True], [2, 0, 1], [2, 1, 0],
                 [5, 2, 5], [2, 0, 0], [-1, -1, -1])


def test_fold_counts_a_case1_statistic_by_hand():
    spec = ExperimentSpec(protocol="jiang", attack="intercept-resend", trials=6)
    third = binomial_stderr(1 / 3, 3)
    assert fold_report(spec, _case1_chunks()) == AggregateReport(
        spec=spec, trials=6, detection_rate=1 / 3, detection_stderr=binomial_stderr(1 / 3, 6),
        abort_rate=0.5, insufficient_rounds_rate=1 / 6, completed_trials=3,
        wrong_result_rate=1 / 3, wrong_result_stderr=third, secret_recovery_rate=None,
        case1_rounds_total=21, case1_errors_total=3, case1_error_rate=1 / 7,
        detection_by_trap_count=(
            TrapCountRow(2, 3, 1, 1 / 3, third, 1 - 0.25**2),
            TrapCountRow(5, 3, 1, 1 / 3, third, 1 - 0.25**5),
        ),
    )


def test_fold_counts_the_improved_trap_statistic_by_hand():
    """The outsider forges both legs, so k = n + m: 1 for three trials (two
    trap aborts), 3 for two (one Bell abort)."""
    spec = ExperimentSpec(protocol="improved", attack="outside", trials=5)
    lanes = _lanes([2, 0, 2, 0, 1], [False, True, False, False, False], [1, 1, 0, 2, 0],
                   [0, 0, 1, 1, 3], [0, 0, 0, 1, 2], [0, 0, 0, 0, 1], [-1] * 5)
    assert fold_report(spec, [lanes]) == AggregateReport(
        spec=spec, trials=5, detection_rate=0.6, detection_stderr=binomial_stderr(0.6, 5),
        abort_rate=0.6, insufficient_rounds_rate=0.0, completed_trials=2,
        wrong_result_rate=0.5, wrong_result_stderr=binomial_stderr(0.5, 2),
        secret_recovery_rate=None, case1_rounds_total=3, case1_errors_total=1,
        case1_error_rate=1 / 3,
        detection_by_trap_count=(
            TrapCountRow(1, 3, 2, 2 / 3, binomial_stderr(2 / 3, 3), 0.5),
            TrapCountRow(3, 2, 1, 0.5, binomial_stderr(0.5, 2), 0.875),
        ),
    )


def test_fold_counts_a_jiang_insider_by_hand():
    """Recovery counts completed trials only: the short abort's 1 is not one."""
    spec = ExperimentSpec(protocol="jiang", attack="participant", trials=5)
    lanes = _lanes([0, 0, 0, 3, 1], [True, True, False, False, False], [0] * 5,
                   [0] * 5, [0] * 5, [0] * 5, [1, 1, 0, 1, -1])
    assert fold_report(spec, [lanes]) == AggregateReport(
        spec=spec, trials=5, detection_rate=0.2, detection_stderr=binomial_stderr(0.2, 5),
        abort_rate=0.4, insufficient_rounds_rate=0.2, completed_trials=3,
        wrong_result_rate=1 / 3, wrong_result_stderr=binomial_stderr(1 / 3, 3),
        secret_recovery_rate=2 / 3, case1_rounds_total=0, case1_errors_total=0,
        case1_error_rate=None,
    )


def test_fold_drops_each_chunk_before_the_next():
    """The fold drops each chunk before it asks for the next one."""
    spec = ExperimentSpec(protocol="jiang", attack="intercept-resend", trials=18)

    def chunks():
        previous = None
        for _ in range(3):
            for lanes in _case1_chunks():
                assert previous is None or previous() is None, "the fold kept a chunk"
                previous = weakref.ref(lanes.reason)
                yield lanes
                del lanes

    assert fold_report(spec, chunks()).trials == 18


def test_aggregate_report_round_trip():
    spec = ExperimentSpec(
        protocol="improved", attack="outside", trials=60, secret_bits=2, seed=1
    )
    report = run_experiment(spec)
    assert AggregateReport.from_dict(report.to_dict()) == report


def _typed(value):
    """`value` with the type of every dict, tuple and leaf spelled out."""
    if isinstance(value, dict):
        return dict, [(key, _typed(item)) for key, item in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value), [_typed(item) for item in value]
    return type(value), value


def test_to_dict_equals_asdict():
    """`to_dict` gives what `dataclasses.asdict` gives, key order and types
    included: trap-count rows stay a tuple of dicts."""
    rows = run_experiment(ExperimentSpec(protocol="improved", attack="outside", trials=60, secret_bits=2, seed=1))
    bare = run_experiment(ExperimentSpec(protocol="jiang", trials=5, rounds_factor=1, seed=2))
    assert rows.detection_by_trap_count
    assert not bare.detection_by_trap_count and bare.completed_trials == 0
    assert bare.wrong_result_rate is None and bare.secret_recovery_rate is None
    spec = ExperimentSpec(protocol="jiang", secret_bits=8, secrets="explicit:A5,3C")
    for record in (rows, bare, spec):
        assert _typed(record.to_dict()) == _typed(asdict(record))


# Faults of a report's shape rather than of a field's value.
STRUCTURAL_FAULTS = {
    ("detection_by_trap_count", 0),
    ("detection_by_trap_count", 0, "extra"),
}


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
        (("detection_by_trap_count",), ["junk"]),
        (("detection_by_trap_count",), None),
    ],
)
def test_aggregate_report_from_dict_validates(path, value):
    """Counts, rates, their consistency and the trap rows are all checked,
    whether the report is parsed or the dataclass is built directly."""
    spec = ExperimentSpec(
        protocol="improved", attack="outside", trials=60, secret_bits=2, seed=1
    )
    report = run_experiment(spec)
    data = json.loads(emit_report(report, "json"))
    AggregateReport.from_dict(data)  # the untouched report loads
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValidationError):
        AggregateReport.from_dict(data)
    if path in STRUCTURAL_FAULTS:
        return  # only a parsed dict can hold these
    *owner_path, name = path
    owner = report
    for key in owner_path:
        owner = owner[key] if isinstance(key, int) else getattr(owner, key)
    with pytest.raises(ValidationError):
        replace(owner, **{name: value})


@pytest.mark.parametrize("data", ["ab", [(1, 2, 3)]])
def test_aggregate_report_from_dict_rejects_a_non_mapping(data):
    with pytest.raises(ValidationError):
        AggregateReport.from_dict(data)


def test_checked_dataclasses_are_frozen():
    """A checked config or report, or a run's transcript, cannot be changed
    after it is built."""
    report = run_experiment(
        ExperimentSpec(protocol="improved", attack="outside", trials=20, secret_bits=2)
    )
    cfg = ProtocolConfig((1,), (0,), (1,), (0,), (1,), num_rounds=4)
    _, transcript, _ = run_protocol(Variant.IMPROVED, cfg, seed=0)
    records = (report.spec, cfg, report.detection_by_trap_count[0], report, transcript)
    for record in records:
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))


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


def test_binomial_tails_match_exact_sums():
    for n, p in ((1, 0.5), (7, 0.3), (40, 0.9)):
        for k in range(n + 1):
            pmf = [comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
            lower, upper = oracles.binomial_tails(k, n, p)
            assert lower == pytest.approx(sum(pmf[: k + 1]), rel=1e-12, abs=1e-300)
            assert upper == pytest.approx(sum(pmf[k:]), rel=1e-12, abs=1e-300)
    assert oracles.binomial_tails(0, 5, 0.0) == (1.0, 1.0)
    assert oracles.binomial_tails(1, 5, 0.0) == (1.0, 0.0)
    assert oracles.binomial_tails(4, 5, 1.0) == (0.0, 1.0)


def _p_detect_of(protocol, p_detect):
    """The spec's p_detect argument: jiang has no detection rounds and takes
    only the default, which the laws ignore for it."""
    return {"p_detect": p_detect} if protocol == "improved" else {}


@pytest.mark.parametrize(("p_ctrl", "p_detect"), [(0.5, 0.5), (0.7, 0.3)])
@pytest.mark.parametrize("attack", list(ATTACKS))
@pytest.mark.parametrize("protocol", ["jiang", "improved"])
def test_unconditional_detection_rate_follows_exact_law(
    protocol, attack, p_ctrl, p_detect
):
    """At L=1 and threshold 0 the detection count of every pair fits its closed
    form within an exact two-sided binomial tail of 5.7e-7; where the law is
    0, a single detection fails."""
    trials = 800
    spec = ExperimentSpec(
        protocol=protocol,
        attack=attack,
        secret_bits=1,
        p_ctrl=p_ctrl,
        **_p_detect_of(protocol, p_detect),
        trials=trials,
        seed=8,
        threshold=0.0,
    )
    report = run_experiment(spec)
    law = oracles.detection_probability(
        protocol, attack, spec.num_rounds(), p_ctrl, p_detect
    )
    detected = round(report.detection_rate * trials)
    assert min(oracles.binomial_tails(detected, trials, law)) >= oracles.TAIL / 2


def test_case1_error_rationals_match_enumerations():
    enumerated = {
        "participant-forward": oracles.forward_only_case1_error(),
        "intercept-resend": oracles.intercept_resend_case1_error(),
        "measure-resend": oracles.measure_resend_case1_error(),
    }
    assert enumerated.keys() == oracles.CASE1_ERROR.keys()
    for attack, error in oracles.CASE1_ERROR.items():
        assert abs(float(error) - enumerated[attack]) < 1e-12


@pytest.mark.parametrize(
    ("length", "factor", "p_ctrl", "p_detect"),
    [(1, 3, 0.5, 0.5), (2, 2, 0.5, 0.5), (3, 3, 0.7, 0.3)],
)
@pytest.mark.parametrize("attack", list(ATTACKS))
@pytest.mark.parametrize("protocol", ["jiang", "improved"])
def test_abort_counts_follow_exact_joint_law(
    protocol, attack, length, factor, p_ctrl, p_detect
):
    """At threshold 0 the detection, abort and InsufficientRounds counts of
    every pair each fit the exact joint law within an exact two-sided binomial
    tail of 5.7e-7. The law's detection marginal is the closed form, and where
    nothing is detected its InsufficientRounds marginal is the shortfall tail."""
    rounds = factor * length
    law = oracles.abort_law(protocol, attack, length, rounds, p_ctrl, p_detect)
    closed = oracles.detection_probability(protocol, attack, rounds, p_ctrl, p_detect)
    assert abs(float(law.detection) - closed) < 1e-12
    if not law.detection:
        p_calc = 1 - Fraction(str(p_ctrl))
        if protocol == "improved":
            p_calc *= 1 - Fraction(str(p_detect))
        shortfall = oracles.insufficient_rounds_probability(rounds, p_calc, length)
        assert abs(float(law.insufficient_rounds) - shortfall) < 1e-12
    trials = 400
    report = run_experiment(
        ExperimentSpec(
            protocol=protocol,
            attack=attack,
            secret_bits=length,
            rounds_factor=factor,
            p_ctrl=p_ctrl,
            **_p_detect_of(protocol, p_detect),
            trials=trials,
            seed=12,
            threshold=0.0,
        )
    )
    for rate, p in (
        (report.detection_rate, law.detection),
        (report.abort_rate, law.abort),
        (report.insufficient_rounds_rate, law.insufficient_rounds),
    ):
        observed = round(rate * trials)
        assert min(oracles.binomial_tails(observed, trials, float(p))) >= oracles.TAIL / 2


@pytest.mark.parametrize(
    ("protocol", "attack"),
    [(p, a) for p in ("jiang", "improved") for a in ATTACKS if a not in oracles.SWAPPED_LEGS]
    + [("jiang", "outside"), ("jiang", "participant")],
)
def test_wrong_results_follow_exact_law(protocol, attack):
    """Without swap-back no verdict is ever wrong, at L = 1 and 2 in every
    random secrets mode. Under jiang's swap-back the wrong count of the
    completed trials, at L = 1, 2 and 4, fits `oracles.wrong_result_law`
    within an exact two-sided binomial tail of 5.7e-7."""
    assert oracles.jiang_outside_wrong_result_single_bit() == 0.5
    swapped = attack in oracles.SWAPPED_LEGS
    trials = 4000
    for length, secrets in itertools.product((1, 2, 4) if swapped else (1, 2), SECRET_MODES):
        law = oracles.wrong_result_law(protocol, attack, length, secrets)
        report = run_experiment(
            ExperimentSpec(
                protocol=protocol, attack=attack, secret_bits=length,
                secrets=secrets, trials=trials, seed=7,
            )
        )
        completed = report.completed_trials
        if not swapped:
            assert law == 0
            assert report.wrong_result_rate == (0.0 if completed else None)
            continue
        assert completed > trials // 2
        wrong = round(report.wrong_result_rate * completed)
        tails = oracles.binomial_tails(wrong, completed, float(law))
        assert min(tails) >= oracles.TAIL / 2, (length, secrets, wrong, completed, float(law))


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
    assert oracles.tp_inference_test(1) == 0.0
    assert oracles.tp_inference_test(2) == 0.0


def test_tp_inference_with_public_key_pins_the_secret():
    assert oracles.tp_inference_test(1, public_key=True) == 0.5
    assert oracles.tp_inference_test(2, public_key=True) == 0.5


def test_tp_inference_rejects_oversized_enumeration():
    with pytest.raises(ValueError):
        oracles.tp_inference_test(5)


def test_package_exports_exactly_its_public_names():
    import sqpclab

    names = {
        "AbortReason", "AggregateReport", "BellKind", "CapacityExceeded",
        "ChannelStrategy", "Choice", "ComparisonOutcome", "ExperimentSpec",
        "InvalidHandle", "Leg", "MaskRecord", "ProtocolConfig", "QsimError",
        "QubitHandle", "RoundRecord", "SameRegister", "Simulator", "Transcript",
        "TrialReport", "ValidationError", "Variant", "compute_ma_jiang",
        "compute_mask_improved", "compute_r", "make_strategy", "run_experiment",
        "run_protocol",
    }
    assert len(names) == 27
    assert set(sqpclab.__all__) == names
    assert len(sqpclab.__all__) == len(names)
    namespace = {}
    exec("from sqpclab import *", namespace)
    assert set(namespace) - {"__builtins__"} == names
