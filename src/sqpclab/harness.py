"""Monte Carlo experiment runner and the attacks' detection model.

An experiment is T independent protocol runs under one configuration.
Trial i draws from ``default_rng(np.random.SeedSequence([seed, i]))``;
that mixing rule is part of the report contract, so identical specs give
bit-identical reports. Within a trial the draw order is fixed: shared
key, Alice raw key, Bob raw key, secrets, then the protocol run itself.

Draw layout: K, RA, RB and the drawn secrets (x, then y unless the mode is
equal; none in explicit mode) come from one ``integers(0, 2, size=n*L)``
call, sliced in that order; an unequal-mode redraw of y follows as a call
of its own. Each bit takes one 32-bit half-word (see `batch`), so one call
of n*L bits yields the same bits and leaves the same state as n calls of L.

The batched engine (`batch.run_chunks`) runs every experiment: it plans
its chunks, seeds each chunk's trials at once and plays them as numpy
arrays. `run_trial` is the scalar engine: one trial through
`protocol.run_protocol`, the simulator and a channel strategy, drawing
through numpy's own Generator. It is the reference the batched engine's
lanes must equal, and the way to replay any single trial.

Aggregation streams: `run_experiment` folds each chunk's report fields
(`batch.Lanes`) into integer `TrialCounts` as the chunk finishes, and
`aggregate` turns those counts into the `AggregateReport`, so memory does
not grow with T.

Specs and reports are frozen and check themselves when built; `from_dict`
only parses and constructs.

Rate conventions: detection_rate counts security aborts (Bell or trap check)
over all trials; wrong_result_rate and secret_recovery_rate are conditioned
on trials that completed (no abort); InsufficientRounds aborts are tracked
separately as an operational failure, not a detection.
"""
from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .adversary import ATTACKS, make_strategy
from .batch import REASONS, Lanes, run_chunks
from .protocol import (
    AbortReason,
    Leg,
    ProtocolConfig,
    TrialReport,
    ValidationError,
    Variant,
    check_fields,
    run_protocol,
)

# Smallest integer factors keeping the analytic shortfall probability at the
# L=8 defaults at least an order of magnitude inside the 1e-3 budget
# (exact binomial tails: jiang 4.2277e-5, improved 7.7771e-5).
DEFAULT_ROUNDS_FACTOR = {"jiang": 5, "improved": 11}

SECRET_MODES = ("random", "equal", "unequal")

# Rounds a trial may run. An experiment plays a trial this long in a chunk
# of its own, 117 traced bytes per round (see `batch.MAX_LANE_ROUNDS`):
# 151 MiB peak RSS for improved measure-resend. Replaying it through
# `run_trial` takes 0.7-1.6 KB per round (RSS growth of improved trials at
# L=4,096 and 16,384, from no attack to outside), so up to about 1.6 GiB.
MAX_ROUNDS = 1 << 20


_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+")


@lru_cache(maxsize=64)
def bits_from_hex(text: str, length: int) -> tuple[int, ...]:
    """Decode a hex string into `length` bits, most significant first.

    Only hex digits are accepted: no sign, prefix, underscore or whitespace.
    Memoized, so an experiment decodes each explicit secret once, not per trial.
    """
    if _HEX_DIGITS.fullmatch(text) is None:
        raise ValidationError(f"invalid hex secret {text!r}")
    value = int(text, 16)
    if value >= 1 << length:
        raise ValidationError(
            f"secret {text!r} does not fit in {length} bits"
        )
    return tuple((value >> (length - 1 - i)) & 1 for i in range(length))


@dataclass(frozen=True)
class ExperimentSpec:
    """Experiment configuration, checked when built; field order fixes CSV columns."""

    protocol: str
    attack: str = "none"
    secret_bits: int = field(default=8, metadata={"min": 1})
    # None resolves to the variant default
    rounds_factor: int | None = field(default=None, metadata={"min": 1})
    p_ctrl: float = 0.5
    p_detect: float = 0.5
    trials: int = field(default=1000, metadata={"min": 1})
    seed: int = 0
    threshold: float = 0.0
    secrets: str = "random"  # random | equal | unequal | explicit:HEX,HEX

    def __post_init__(self):
        if self.protocol not in ("jiang", "improved"):
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        check_fields(self, flags=True)
        if self.num_rounds() > MAX_ROUNDS:
            raise ValidationError(
                f"--secret-bits x --rounds-factor must be at most {MAX_ROUNDS},"
                f" got {self.num_rounds()}"
            )
        # jiang has no detection rounds, so only the default is accepted.
        if self.protocol == "jiang" and self.p_detect != ExperimentSpec.p_detect:
            raise ValidationError("--p-detect is not accepted for the jiang protocol")
        if self.attack not in ATTACKS:
            raise ValidationError(f"unknown attack {self.attack!r}")
        self.explicit_secrets()  # raises on malformed explicit values

    def resolved_rounds_factor(self) -> int:
        if self.rounds_factor is not None:
            return self.rounds_factor
        return DEFAULT_ROUNDS_FACTOR[self.protocol]

    def num_rounds(self) -> int:
        return self.resolved_rounds_factor() * self.secret_bits

    def drawn_blocks(self) -> int:
        """L-bit blocks of a trial's first draw: K, RA and RB, then x and y
        (x alone for equal secrets, neither for explicit ones)."""
        return 3 + (self.secrets in SECRET_MODES) + (self.secrets in ("random", "unequal"))

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
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"malformed spec: {exc}") from None


@dataclass(frozen=True)
class TrapCountRow:
    """Detection rate conditioned on one observed value of the trap statistic."""

    k: int
    trials: int = field(metadata={"min": 1})
    detected: int
    detection_rate: float
    stderr: float
    predicted: float

    def __post_init__(self):
        check_fields(self)
        if self.detected > self.trials:
            raise ValidationError("report counts are inconsistent")


@dataclass(frozen=True)
class AggregateReport:
    spec: ExperimentSpec
    trials: int = field(metadata={"min": 1})
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
    detection_by_trap_count: tuple[TrapCountRow, ...] = ()

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.spec, ExperimentSpec):
            raise ValidationError(f"spec must be an ExperimentSpec, got {self.spec!r}")
        rows = self.detection_by_trap_count
        if not isinstance(rows, tuple) or not all(isinstance(r, TrapCountRow) for r in rows):
            raise ValidationError(f"malformed detection_by_trap_count {rows!r}")
        if (
            self.completed_trials > self.trials
            or self.case1_errors_total > self.case1_rounds_total
        ):
            raise ValidationError("report counts are inconsistent")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateReport":
        """Parse a `to_dict` result; raises ValidationError."""
        try:
            data = {**data}
            data["spec"] = ExperimentSpec.from_dict(data["spec"])
            data["detection_by_trap_count"] = tuple(
                TrapCountRow(**row) for row in data["detection_by_trap_count"]
            )
            return cls(**data)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed report: {exc!r}") from None


def binomial_stderr(rate: float, n: int) -> float:
    """Standard error of a binomial proportion estimate."""
    if n <= 0:
        return 0.0
    return math.sqrt(rate * (1.0 - rate) / n)


# -- detection model -----------------------------------------------------------


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
    """The documented per-trial stream:
    ``default_rng(SeedSequence([seed, trial_index]))``."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial_index]))


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialReport:
    """One protocol run under the experiment configuration."""
    L = spec.secret_bits
    explicit = spec.explicit_secrets()
    n = spec.drawn_blocks()
    rng = trial_rng(spec.seed, trial_index)
    bits = rng.integers(0, 2, size=n * L).tolist()
    k, ra, rb, *drawn = (tuple(bits[j : j + L]) for j in range(0, n * L, L))
    if explicit is not None:
        x, y = explicit
    elif spec.secrets == "equal":
        x = y = drawn[0]
    else:
        x, y = drawn
        while spec.secrets == "unequal" and y == x:
            y = tuple(rng.integers(0, 2, size=L).tolist())
    cfg = ProtocolConfig(
        x, y, k, ra, rb, spec.num_rounds(), spec.p_ctrl, spec.p_detect, spec.threshold
    )
    strategy = make_strategy(spec.attack)
    return run_protocol(Variant(spec.protocol), cfg, strategy, rng)[2]


@dataclass
class TrialCounts:
    """Integer tallies of an experiment's trials; `wrong` and `recovered`
    count completed trials, `cells` maps (k, detected) to a trial count."""

    trials: int = 0
    detected: int = 0
    aborted: int = 0
    insufficient: int = 0
    wrong: int = 0
    recovered: int = 0
    case1_rounds: int = 0
    case1_errors: int = 0
    cells: dict[tuple[int, bool], int] = field(default_factory=dict)


def run_experiment(spec: ExperimentSpec) -> AggregateReport:
    """Run all trials and aggregate; per-trial aborts are data, not errors.

    Trials run on the batched engine, in the chunks `batch.run_chunks`
    plans. A lane draws only from its own trial's stream, so its report
    equals the one `run_trial` gives.
    """
    model = detection_model(Variant(spec.protocol), spec.attack)
    extract = None if model is None else model[0]
    counts = TrialCounts()
    for lanes in run_chunks(spec):
        _fold(counts, lanes, extract)
        del lanes  # not held while the next chunk runs
    return aggregate(spec, counts)


def _fold(counts: TrialCounts, lanes: Lanes, extract) -> None:
    """Add a chunk's trials to the tallies."""
    done, detected = lanes.reason == 0, lanes.detected
    counts.trials += len(done)
    counts.detected += int(detected.sum())
    counts.aborted += int((~done).sum())
    counts.insufficient += int((lanes.reason == REASONS.index(AbortReason.INSUFFICIENT_ROUNDS)).sum())
    counts.wrong += int((done & ~lanes.correct).sum())
    counts.recovered += int((done & (lanes.recovered == 1)).sum())
    counts.case1_rounds += int(lanes.case1_rounds.sum())
    counts.case1_errors += int(lanes.case1_errors.sum())
    if extract is not None:
        cells, tally = np.unique(2 * extract(lanes) + detected, return_counts=True)
        for cell, trials in zip(cells.tolist(), tally.tolist()):
            key = (cell // 2, bool(cell % 2))
            counts.cells[key] = counts.cells.get(key, 0) + trials


def aggregate(spec: ExperimentSpec, counts: TrialCounts) -> AggregateReport:
    """The report of an experiment, from its trial tallies."""
    trials, completed = counts.trials, counts.trials - counts.aborted
    detection_rate = counts.detected / trials
    wrong_rate = counts.wrong / completed if completed else None
    insider = spec.protocol == "jiang" and ATTACKS[spec.attack].insider
    table = []
    if counts.cells:
        _, predict = detection_model(Variant(spec.protocol), spec.attack)
        for k in sorted({k for k, _ in counts.cells}):
            hits = counts.cells.get((k, True), 0)
            group = hits + counts.cells.get((k, False), 0)
            rate = hits / group
            stderr = binomial_stderr(rate, group)
            table.append(TrapCountRow(k, group, hits, rate, stderr, predict(k)))
    return AggregateReport(
        spec=spec,
        trials=trials,
        detection_rate=detection_rate,
        detection_stderr=binomial_stderr(detection_rate, trials),
        abort_rate=counts.aborted / trials,
        insufficient_rounds_rate=counts.insufficient / trials,
        completed_trials=completed,
        wrong_result_rate=wrong_rate,
        wrong_result_stderr=binomial_stderr(wrong_rate, completed) if completed else None,
        secret_recovery_rate=counts.recovered / completed if insider and completed else None,
        case1_rounds_total=counts.case1_rounds,
        case1_errors_total=counts.case1_errors,
        case1_error_rate=(
            counts.case1_errors / counts.case1_rounds if counts.case1_rounds else None
        ),
        detection_by_trap_count=tuple(table),
    )
