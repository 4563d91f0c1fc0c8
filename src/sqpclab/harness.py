"""Monte Carlo experiment runner and analytic oracles.

An experiment is T independent protocol runs under one configuration.
Trial i draws its generator from ``np.random.SeedSequence([seed, i])``;
that mixing rule is part of the report contract, so identical specs give
bit-identical reports. Within a trial the draw order is fixed: shared key,
Alice raw key, Bob raw key, secrets, then the protocol run itself.

Rate conventions: detection_rate counts security aborts (Bell or trap check)
over all trials; wrong_result_rate and secret_recovery_rate are conditioned
on trials that completed (no abort); InsufficientRounds aborts are tracked
separately as an operational failure, not a detection.
"""
from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .adversary import ATTACKS, make_strategy
from .protocol import (
    AbortReason,
    KeyMaterial,
    Leg,
    ProtocolConfig,
    SecretInput,
    TrialReport,
    Variant,
    run_protocol,
)

# Smallest integer factors keeping the analytic shortfall probability at the
# L=8 defaults at least an order of magnitude inside the 1e-3 budget
# (exact binomial tails: jiang 4.2277e-5, improved 7.7771e-5).
DEFAULT_ROUNDS_FACTOR = {"jiang": 5, "improved": 11}

SECRET_MODES = ("random", "equal", "unequal")


class ValidationError(ValueError):
    """A configuration value is out of range or malformed."""


_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+")


def bits_from_hex(text: str, length: int) -> tuple[int, ...]:
    """Decode a hex string into `length` bits, most significant first.

    Only hex digits are accepted: no sign, prefix, underscore or whitespace.
    """
    if _HEX_DIGITS.fullmatch(text) is None:
        raise ValidationError(f"invalid hex secret {text!r}")
    value = int(text, 16)
    if value >= 1 << length:
        raise ValidationError(
            f"secret {text!r} does not fit in {length} bits"
        )
    return tuple((value >> (length - 1 - i)) & 1 for i in range(length))


@dataclass
class ExperimentSpec:
    """Full configuration of one experiment; field order fixes CSV columns."""

    protocol: str
    attack: str = "none"
    secret_bits: int = 8
    rounds_factor: int | None = None  # None resolves to the variant default
    p_ctrl: float = 0.5
    p_detect: float = 0.5
    trials: int = 1000
    seed: int = 0
    threshold: float = 0.0
    secrets: str = "random"  # random | equal | unequal | explicit:HEX,HEX

    def validate(self) -> None:
        if self.protocol not in ("jiang", "improved"):
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        if self.attack not in ATTACKS:
            raise ValidationError(f"unknown attack {self.attack!r}")
        integers = [
            ("--secret-bits", self.secret_bits),
            ("--trials", self.trials),
            ("--seed", self.seed),
        ]
        if self.rounds_factor is not None:
            integers.append(("--rounds-factor", self.rounds_factor))
        for name, value in integers:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.secret_bits < 1:
            raise ValidationError("--secret-bits must be at least 1")
        if self.rounds_factor is not None and self.rounds_factor < 1:
            raise ValidationError("--rounds-factor must be at least 1")
        for name, p in (("--p-ctrl", self.p_ctrl), ("--p-detect", self.p_detect)):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {p}")
        if self.trials < 1:
            raise ValidationError("--trials must be at least 1")
        if self.seed < 0:
            raise ValidationError(f"--seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError(f"--threshold must lie in [0, 1], got {self.threshold}")
        self.explicit_secrets()  # raises on malformed explicit values

    def resolved_rounds_factor(self) -> int:
        if self.rounds_factor is not None:
            return self.rounds_factor
        return DEFAULT_ROUNDS_FACTOR[self.protocol]

    def num_rounds(self) -> int:
        return self.resolved_rounds_factor() * self.secret_bits

    def explicit_secrets(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Decoded (x, y) for explicit mode, None for the random modes."""
        if self.secrets in SECRET_MODES:
            return None
        if not self.secrets.startswith("explicit:"):
            raise ValidationError(f"unknown secrets mode {self.secrets!r}")
        body = self.secrets[len("explicit:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValidationError("--secrets explicit form is explicit:HEX,HEX")
        x = bits_from_hex(parts[0], self.secret_bits)
        y = bits_from_hex(parts[1], self.secret_bits)
        return x, y

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        spec = cls(**data)
        spec.validate()
        return spec


@dataclass
class TrapCountRow:
    """Detection rate conditioned on one observed value of the trap statistic."""

    k: int
    trials: int
    detected: int
    detection_rate: float
    stderr: float
    predicted: float


@dataclass
class AggregateReport:
    spec: ExperimentSpec
    trials: int
    detection_rate: float
    detection_stderr: float
    abort_rate: float
    insufficient_rounds_rate: float
    completed_trials: int
    wrong_result_rate: float | None
    wrong_result_stderr: float | None
    secret_recovery_rate: float | None
    case1_rounds_total: int
    case1_errors_total: int
    case1_error_rate: float | None
    detection_by_trap_count: list[TrapCountRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateReport":
        """Parse and validate a `to_dict` result; raises ValidationError."""
        try:
            data = dict(data)
            data["spec"] = ExperimentSpec.from_dict(data["spec"])
            data["detection_by_trap_count"] = [
                TrapCountRow(**row) for row in data["detection_by_trap_count"]
            ]
            report = cls(**data)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed report: {exc!r}") from None
        rows = report.detection_by_trap_count
        for record in (report, *rows):
            _check_ranges(record)
        if (
            report.trials < 1
            or report.completed_trials > report.trials
            or report.case1_errors_total > report.case1_rounds_total
            or any(row.trials < 1 or row.detected > row.trials for row in rows)
        ):
            raise ValidationError("report counts are inconsistent")
        return report


def _check_ranges(record) -> None:
    """Fields declared `int` must be nonnegative ints; fields declared `float`
    must lie in [0, 1], or be None where the declaration allows it."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "int":
            ok = type(value) is int and value >= 0
        elif f.type.startswith("float"):
            ok = (value is None and f.type.endswith("| None")) or (
                type(value) in (int, float) and 0.0 <= value <= 1.0
            )
        else:
            continue
        if not ok:
            raise ValidationError(f"{f.name} out of range: {value!r}")


def binomial_stderr(rate: float, n: int) -> float:
    """Standard error of a binomial proportion estimate."""
    if n <= 0:
        return 0.0
    return math.sqrt(rate * (1.0 - rate) / n)


# -- analytic oracles ---------------------------------------------------------


def analytic_detection_outside(n: int, m: int) -> float:
    """Detection probability of the full swap attack given n + m traps."""
    if n < 0 or m < 0:
        raise ValueError("trap counts must be nonnegative")
    return 1.0 - 0.5 ** (n + m)


def analytic_detection_participant(n: int) -> float:
    """Detection probability of malicious Bob given n traps from Alice."""
    if n < 0:
        raise ValueError("trap count must be nonnegative")
    return 1.0 - 0.5**n


def wrong_result_model_jiang_outside(l_used: int) -> float:
    """Probability the swapped-channel jiang run reports NotEqual when X = Y.

    Each comparison value becomes an independent fair coin because the raw
    keys are uniform and independent of the parities TP measures.
    """
    if l_used < 0:
        raise ValueError("l_used must be nonnegative")
    return 1.0 - 0.5**l_used


def detection_model(variant: Variant, attack: str):
    """(statistic, prediction) pair for conditional detection tables.

    Returns (extract(report) -> k, predict(k) -> probability), or None for
    configurations with no detectable signature. An attack that disturbs
    case-1 pairs fails each Bell check with its `case1_error`. One that swaps
    the genuine halves back passes the Bell check, but in the improved variant
    TP Z-measures a genuine Bell half for each trap sent on a swapped leg,
    which flips the trap with probability 1/2.
    """
    row = ATTACKS[attack]
    if row.case1_error:
        p, extract = row.case1_error, lambda r: r.case1_rounds
    elif variant is Variant.IMPROVED and row.swap_back:
        alice = Leg.FORWARD_TP_TO_ALICE in row.forged
        bob = Leg.FORWARD_TP_TO_BOB in row.forged
        p, extract = 0.5, lambda r: alice * r.n + bob * r.m
    else:
        return None
    survive = 1.0 - p
    return extract, lambda k: 1.0 - survive**k


# -- experiment execution ------------------------------------------------------


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """The documented per-trial stream: SeedSequence([seed, trial_index])."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial_index]))


def _random_bits(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, size=n))


def _trial_secrets(
    spec: ExperimentSpec, rng: np.random.Generator
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    explicit = spec.explicit_secrets()
    if explicit is not None:
        return explicit
    x = _random_bits(rng, spec.secret_bits)
    if spec.secrets == "equal":
        return x, x
    y = _random_bits(rng, spec.secret_bits)
    if spec.secrets == "unequal":
        while y == x:
            y = _random_bits(rng, spec.secret_bits)
    return x, y


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialReport:
    """One protocol run under the experiment configuration."""
    rng = trial_rng(spec.seed, trial_index)
    L = spec.secret_bits
    keys = KeyMaterial(
        k=_random_bits(rng, L), ra=_random_bits(rng, L), rb=_random_bits(rng, L)
    )
    x, y = _trial_secrets(spec, rng)
    cfg = ProtocolConfig(
        secrets=SecretInput(x, y),
        keys=keys,
        num_rounds=spec.num_rounds(),
        p_ctrl=spec.p_ctrl,
        p_detect=spec.p_detect,
        threshold=spec.threshold,
    )
    strategy = make_strategy(spec.attack, shared_key=keys.k)
    _, _, report = run_protocol(Variant(spec.protocol), cfg, strategy, rng=rng)
    return report


def run_experiment(spec: ExperimentSpec) -> AggregateReport:
    """Run all trials and aggregate; per-trial aborts are data, not errors."""
    spec.validate()
    reports = [run_trial(spec, t) for t in range(spec.trials)]
    return aggregate(spec, reports)


def aggregate(spec: ExperimentSpec, reports: list[TrialReport]) -> AggregateReport:
    trials = len(reports)
    detected = sum(r.detected for r in reports)
    aborted = sum(r.outcome.aborted for r in reports)
    insufficient = sum(
        r.outcome.abort_reason is AbortReason.INSUFFICIENT_ROUNDS for r in reports
    )
    completed = [r for r in reports if not r.outcome.aborted]

    detection_rate = detected / trials
    wrong_rate = wrong_stderr = None
    if completed:
        wrong = sum(not r.verdict_correct for r in completed)
        wrong_rate = wrong / len(completed)
        wrong_stderr = binomial_stderr(wrong_rate, len(completed))

    recovery_rate = None
    if spec.protocol == "jiang" and ATTACKS[spec.attack].insider and completed:
        recovered = sum(
            r.adversary_recovered_secret_correct is True for r in completed
        )
        recovery_rate = recovered / len(completed)

    case1_total = sum(r.case1_rounds for r in reports)
    case1_errors = sum(r.case1_errors for r in reports)
    case1_rate = case1_errors / case1_total if case1_total else None

    table: list[TrapCountRow] = []
    model = detection_model(Variant(spec.protocol), spec.attack)
    if model is not None:
        extract, predict = model
        cells: dict[int, list[TrialReport]] = {}
        for r in reports:
            cells.setdefault(extract(r), []).append(r)
        for k in sorted(cells):
            group = cells[k]
            hits = sum(r.detected for r in group)
            rate = hits / len(group)
            table.append(
                TrapCountRow(
                    k=k,
                    trials=len(group),
                    detected=hits,
                    detection_rate=rate,
                    stderr=binomial_stderr(rate, len(group)),
                    predicted=predict(k),
                )
            )

    return AggregateReport(
        spec=spec,
        trials=trials,
        detection_rate=detection_rate,
        detection_stderr=binomial_stderr(detection_rate, trials),
        abort_rate=aborted / trials,
        insufficient_rounds_rate=insufficient / trials,
        completed_trials=len(completed),
        wrong_result_rate=wrong_rate,
        wrong_result_stderr=wrong_stderr,
        secret_recovery_rate=recovery_rate,
        case1_rounds_total=case1_total,
        case1_errors_total=case1_errors,
        case1_error_rate=case1_rate,
        detection_by_trap_count=table,
    )


# -- semi-honest TP leakage ----------------------------------------------------


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
