"""Command-line front end: configure an experiment, run it, emit a report.

Every rejected input, from argparse (an unknown flag, a malformed or
missing value) or from the spec's own checks, prints one ``error:`` line and
exits with status 2; ``--help`` prints the usage and exits with status 0.

Output formats: `table` is human-oriented and not schema-stable; `json`
follows the documented schema (see README) and is byte-deterministic for a
given spec; `csv` emits one fixed header row plus one data row, spec columns
(prefixed `spec_`) followed by aggregate columns in declaration order.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from functools import cache

from .adversary import ATTACKS
from .harness import (
    DEFAULT_ROUNDS_FACTOR,
    AggregateReport,
    ExperimentSpec,
    ValidationError,
    run_experiment,
)


_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec))
_AGGREGATE_FIELDS = tuple(f.name for f in fields(AggregateReport) if f.name != "spec")

CSV_HEADER = tuple(f"spec_{f}" for f in _SPEC_FIELDS) + _AGGREGATE_FIELDS


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise `ValidationError`, so
    `main` reports them like every other bad input: one line, status 2.
    Some messages quote a token as given, so unprintable characters, line
    breaks among them, are escaped."""

    def error(self, message):
        escaped = "".join(c if c.isprintable() else ascii(c)[1:-1] for c in message)
        raise ValidationError(escaped)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared: parsing leaves it
    unchanged, and building it costs more than a parse."""
    default = ExperimentSpec  # its fields' defaults
    factor = ", ".join(f"{n} for {protocol}" for protocol, n in DEFAULT_ROUNDS_FACTOR.items())
    parser = _Parser(
        prog="sqpclab",
        description="Run a private-comparison protocol experiment.",
        argument_default=argparse.SUPPRESS,  # an unset flag takes the spec's default
    )
    parser.add_argument(
        "--protocol", required=True, choices=("jiang", "improved"),
        help="protocol variant to execute",
    )
    parser.add_argument(
        "--attack", choices=ATTACKS,
        help=f"channel strategy (default: {default.attack})",
    )
    parser.add_argument(
        "--secret-bits", type=int, metavar="L",
        help=f"length of each secret in bits (default: {default.secret_bits})",
    )
    parser.add_argument(
        "--rounds-factor", type=int, metavar="F",
        help=f"Bell pairs per secret bit (default: {factor})",
    )
    parser.add_argument("--trials", type=int, help=f"Monte Carlo trials (default: {default.trials})")
    parser.add_argument("--seed", type=int, help=f"master seed (default: {default.seed})")
    parser.add_argument(
        "--p-ctrl", type=float, metavar="P",
        help=f"per-round probability of CTRL (default: {default.p_ctrl})",
    )
    parser.add_argument(
        "--p-detect", type=float, metavar="P",
        help="probability a SIFT round is a trap round; improved protocol only"
        f" (default: {default.p_detect})",
    )
    parser.add_argument(
        "--secrets", metavar="MODE",
        help=f"equal | unequal | random | explicit:HEX,HEX (default: {default.secrets})",
    )
    parser.add_argument(
        "--threshold", type=float,
        help=f"abort threshold for check error rates (default: {default.threshold})",
    )
    parser.add_argument(
        "--output", default="table", choices=("table", "json", "csv"),
        help="report format (default: table)",
    )
    return parser


def parse_args(argv: list[str]) -> tuple[ExperimentSpec, str]:
    """Map flags to an ExperimentSpec (checked when built) and the --output format."""
    args = vars(build_parser().parse_args(argv))
    fmt = args.pop("output")
    if "p_detect" in args and args["protocol"] == "jiang":
        raise ValidationError("--p-detect is not accepted for the jiang protocol")
    return ExperimentSpec(**args), fmt


def emit_report(report: AggregateReport, fmt: str) -> str:
    """Render the report as `fmt`: "table", "json" or "csv"."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _emit_csv(report)
    return _emit_table(report)


def _emit_csv(report: AggregateReport) -> str:
    data = report.to_dict()
    data["detection_by_trap_count"] = json.dumps(
        data["detection_by_trap_count"], sort_keys=True, separators=(",", ":")
    )
    row = [_csv_cell(data["spec"][name]) for name in _SPEC_FIELDS]
    row += [_csv_cell(data[name]) for name in _AGGREGATE_FIELDS]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerow(row)
    return buffer.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _fmt_rate(rate: float | None, stderr: float | None = None) -> str:
    if rate is None:
        return "n/a"
    if stderr is None:
        return f"{rate:.6f}"
    return f"{rate:.6f} +/- {stderr:.6f}"


def _emit_table(report: AggregateReport) -> str:
    spec = report.spec
    lines = []
    pairs = [
        ("protocol", spec.protocol),
        ("attack", spec.attack),
        ("secret bits", spec.secret_bits),
        ("rounds", f"{spec.num_rounds()} (factor {spec.resolved_rounds_factor()})"),
        ("p_ctrl / p_detect", f"{spec.p_ctrl} / {spec.p_detect}"),
        ("threshold", spec.threshold),
        ("secrets", spec.secrets),
        ("trials", report.trials),
        ("seed", spec.seed),
        ("detection rate", _fmt_rate(report.detection_rate, report.detection_stderr)),
        ("abort rate", _fmt_rate(report.abort_rate)),
        ("insufficient rounds", _fmt_rate(report.insufficient_rounds_rate)),
        ("completed trials", report.completed_trials),
        ("wrong result rate", _fmt_rate(report.wrong_result_rate, report.wrong_result_stderr)),
        ("secret recovery rate", _fmt_rate(report.secret_recovery_rate)),
        ("case-1 rounds / errors", f"{report.case1_rounds_total} / {report.case1_errors_total}"),
        ("case-1 error rate", _fmt_rate(report.case1_error_rate)),
    ]
    width = max(len(name) for name, _ in pairs)
    for name, value in pairs:
        lines.append(f"{name:<{width}}  {value}")
    if report.detection_by_trap_count:
        lines.append("")
        lines.append(f"{'k':>4} {'trials':>7} {'detected':>9} {'rate':>9} {'predicted':>10}")
        for row in report.detection_by_trap_count:
            lines.append(
                f"{row.k:>4} {row.trials:>7} {row.detected:>9} "
                f"{row.detection_rate:>9.4f} {row.predicted:>10.4f}"
            )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        spec, fmt = parse_args(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(spec)
    sys.stdout.write(emit_report(report, fmt))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
