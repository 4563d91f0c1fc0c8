"""Tests for argument parsing, report serialization, and exit codes."""
import csv
import io
import json
import subprocess
import sys

import pytest

from sqpclab.cli import (
    CSV_HEADER,
    emit_report,
    main,
    parse_args,
)
from sqpclab.harness import (
    AggregateReport,
    ExperimentSpec,
    ValidationError,
    run_experiment,
)


# -- parsing -------------------------------------------------------------------


def test_parse_args_full_mapping():
    spec, fmt = parse_args(
        [
            "--protocol", "improved", "--attack", "outside",
            "--secret-bits", "8", "--trials", "10000", "--seed", "42",
        ]
    )
    assert spec == ExperimentSpec(
        protocol="improved",
        attack="outside",
        secret_bits=8,
        rounds_factor=None,
        p_ctrl=0.5,
        p_detect=0.5,
        trials=10000,
        seed=42,
        threshold=0.0,
        secrets="random",
    )
    assert fmt == "table"


def test_parse_args_documented_defaults():
    spec, fmt = parse_args(["--protocol", "jiang"])
    assert spec.attack == "none"
    assert spec.secret_bits == 8
    assert spec.rounds_factor is None
    assert spec.resolved_rounds_factor() == 5
    assert spec.p_ctrl == 0.5
    assert spec.p_detect == 0.5
    assert spec.trials == 1000
    assert spec.seed == 0
    assert spec.threshold == 0.0
    assert spec.secrets == "random"
    assert fmt == "table"
    spec, _ = parse_args(["--protocol", "improved"])
    assert spec.resolved_rounds_factor() == 11


def test_parse_args_explicit_hex_secrets():
    spec, _ = parse_args(
        ["--protocol", "jiang", "--secrets", "explicit:AF,AF", "--secret-bits", "8"]
    )
    x, y = spec.explicit_secrets()
    assert x == y == (1, 0, 1, 0, 1, 1, 1, 1)


def test_parse_args_rejects_out_of_range_probability():
    with pytest.raises(ValidationError):
        parse_args(["--protocol", "jiang", "--p-ctrl", "1.5"])


def test_parse_args_rejects_p_detect_for_jiang():
    with pytest.raises(ValidationError):
        parse_args(["--protocol", "jiang", "--p-detect", "0.5"])
    spec, _ = parse_args(["--protocol", "improved", "--p-detect", "0.25"])
    assert spec.p_detect == 0.25


def test_unknown_flag_is_usage_error(capsys):
    assert main(["--protocol", "jiang", "--frobnicate", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --frobnicate 1\n"


def test_missing_protocol_is_usage_error(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the following arguments are required: --protocol\n"


@pytest.mark.parametrize(
    ("argv", "start"),
    [
        (["--protocol", "jiang", "--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
        (["--protocol", "foo"], "argument --protocol: invalid choice: 'foo'"),
        (["--protocol", "jiang", "--output", "xml"], "argument --output: invalid choice: 'xml'"),
        (["--protocol"], "argument --protocol: expected one argument"),
    ],
)
def test_argparse_errors_are_one_line(capsys, argv, start):
    """argparse's own rejections print one error line, without the usage
    block, and exit with status 2 instead of raising SystemExit."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {start}") and captured.err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sqpclab")


# -- report emission -------------------------------------------------------------


@pytest.fixture(scope="module")
def sample_report():
    return run_experiment(
        ExperimentSpec(
            protocol="improved", attack="outside", secret_bits=2, trials=120, seed=9
        )
    )


@pytest.fixture(scope="module")
def quiet_report():
    return run_experiment(
        ExperimentSpec(protocol="jiang", secret_bits=2, trials=40, seed=9)
    )


def test_json_schema_keys(sample_report):
    data = json.loads(emit_report(sample_report, "json"))
    for key in (
        "detection_rate",
        "wrong_result_rate",
        "secret_recovery_rate",
        "detection_by_trap_count",
        "spec",
    ):
        assert key in data
    assert isinstance(data["detection_by_trap_count"], list)
    row = data["detection_by_trap_count"][0]
    assert set(row) == {"k", "trials", "detected", "detection_rate", "stderr", "predicted"}


def test_json_empty_trap_table_is_a_list(quiet_report):
    data = json.loads(emit_report(quiet_report, "json"))
    assert data["detection_by_trap_count"] == []


def test_json_round_trip(sample_report):
    data = json.loads(emit_report(sample_report, "json"))
    assert AggregateReport.from_dict(data) == sample_report


def test_emission_is_deterministic(sample_report):
    for fmt in ("table", "json", "csv"):
        assert emit_report(sample_report, fmt) == emit_report(sample_report, fmt)


def test_csv_layout(sample_report):
    text = emit_report(sample_report, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 2
    assert tuple(rows[0]) == CSV_HEADER
    record = dict(zip(rows[0], rows[1]))
    assert record["spec_protocol"] == "improved"
    assert record["spec_trials"] == "120"
    assert float(record["detection_rate"]) == sample_report.detection_rate
    assert json.loads(record["detection_by_trap_count"])  # embedded JSON list


def test_table_output_mentions_key_fields(sample_report):
    text = emit_report(sample_report, "table")
    for needle in ("protocol", "detection rate", "wrong result rate", "predicted"):
        assert needle in text


# -- entry point -------------------------------------------------------------------


def test_main_success_exit_code(capsys):
    code = main(
        ["--protocol", "jiang", "--secret-bits", "2", "--trials", "20",
         "--seed", "1", "--output", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trials"] == 20


def test_main_validation_error_exit_code(capsys):
    code = main(["--protocol", "jiang", "--p-ctrl", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--p-ctrl" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "-1"],
        ["--secrets", "explicit:A_F,0x1"],
        ["--secrets", "explicit:+1,1"],
    ],
)
def test_main_rejects_bad_values_with_one_error_line(capsys, flags):
    code = main(["--protocol", "jiang", "--trials", "1", *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--seed", "-1"], "--seed must be a nonnegative integer, got -1"),
        (["--secret-bits", "0"], "--secret-bits must be at least 1"),
        (["--trials", "0"], "--trials must be at least 1"),
        (["--rounds-factor", "0"], "--rounds-factor must be at least 1"),
        (["--p-ctrl", "1.5"], "--p-ctrl must lie in [0, 1], got 1.5"),
        (["--threshold", "-1"], "--threshold must lie in [0, 1], got -1.0"),
        (["--p-detect", "0.5"], "--p-detect is not accepted for the jiang protocol"),
        (["--secrets", "sideways"], "unknown secrets mode 'sideways'"),
        (["--secrets", "explicit:AF"], "--secrets explicit form is explicit:HEX,HEX"),
        (["--secrets", "explicit:zz,01"], "invalid hex secret 'zz'"),
        (["--secrets", "explicit:FFF,01"], "secret 'FFF' does not fit in 8 bits"),
    ],
)
def test_main_error_message_is_exact(capsys, flags, message):
    assert main(["--protocol", "jiang", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_main_exit_zero_even_when_trials_abort(capsys):
    """Aborts inside trials are data; the process still succeeds."""
    code = main(
        ["--protocol", "improved", "--attack", "outside", "--secret-bits", "2",
         "--trials", "30", "--seed", "2", "--output", "json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["detection_rate"] > 0.5


def test_module_invocation_round_trip():
    """The installed module runs as a script and is byte-deterministic."""
    cmd = [
        sys.executable, "-m", "sqpclab.cli",
        "--protocol", "jiang", "--attack", "participant",
        "--secret-bits", "2", "--trials", "25", "--seed", "4", "--output", "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["secret_recovery_rate"] == 1.0
