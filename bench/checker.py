"""Laws every sqpclab JSON report must obey, written out independently.

The benchmark counts an experiment as failed when its report breaks any law
below. The closed forms are restated here on purpose instead of imported from
`sqpclab.harness`, so a defect in the program's own oracles cannot hide a
defect in the reports.

Exact laws hold for any seed. Statistical laws pool the rows of
`detection_by_trap_count` (or the case-1 rounds) of one report into one
count and reject it when the exact distribution of that count under the
closed form puts less mass on the observed side than a SIGMAS deviation of
a normal variable does. The exact distribution matters where the law is
near 0 or 1: with detection probabilities of 1 - 4^-5 and above, one
undetected trial is a legitimate outcome that lies "many sigma" out under a
normal approximation.
"""
from __future__ import annotations

import math

import numpy as np

SIGMAS = 5.0
# Two-sided tail mass of a SIGMAS normal deviation, about 5.7e-7.
ALPHA = math.erfc(SIGMAS / math.sqrt(2.0))

# Top-level keys of `--output json`, as listed in the README schema table.
REPORT_KEYS = frozenset({
    "spec",
    "trials",
    "detection_rate",
    "detection_stderr",
    "abort_rate",
    "insufficient_rounds_rate",
    "completed_trials",
    "wrong_result_rate",
    "wrong_result_stderr",
    "secret_recovery_rate",
    "case1_rounds_total",
    "case1_errors_total",
    "case1_error_rate",
    "detection_by_trap_count",
})
ROW_KEYS = frozenset({"k", "trials", "detected", "detection_rate", "stderr", "predicted"})

# Probability that one double-CTRL (case-1) round shows a wrong Bell outcome.
# intercept-resend: both halves become independent random Z states, so all
# four Bell outcomes are equally likely. measure-resend: each pair collapses
# to a Z product, leaving two outcomes. participant-forward: one half is a
# random Z state, the other half is still entangled with Bob's stored copy.
CASE1_ERROR = {
    "intercept-resend": 3 / 4,
    "measure-resend": 1 / 2,
    "participant-forward": 3 / 4,
}


def detection_law(protocol: str, attack: str):
    """P(detected | row statistic k), or None where no row law exists.

    k is n+m (outside vs improved), n (participant vs improved) or the
    case-1 round count c (resend and forward-only attacks).
    """
    if attack in CASE1_ERROR:
        survive = 1.0 - CASE1_ERROR[attack]
        return lambda k: 1.0 - survive**k
    if protocol == "improved" and attack in ("outside", "participant"):
        return lambda k: 1.0 - 0.5**k
    return None


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(X = j) for j = 0..n, X ~ Binomial(n, p)."""
    pmf = np.zeros(n + 1)
    if p <= 0.0 or p >= 1.0:
        pmf[n if p >= 1.0 else 0] = 1.0
        return pmf
    j = np.arange(n + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    log_pmf = log_fact[n] - log_fact[j] - log_fact[n - j] + j * math.log(p) + (n - j) * math.log1p(-p)
    return np.exp(log_pmf)


def _plausible(observed: int, groups) -> bool:
    """Whether `observed` successes fit a sum of Binomial(n, p) over `groups`.

    Builds the exact distribution of the sum and accepts unless the tail at
    or beyond `observed`, on either side, holds less than ALPHA / 2.
    """
    dist = np.ones(1)
    for n, p in groups:
        dist = np.convolve(dist, _binomial_pmf(n, p))
    if not 0 <= observed < len(dist):
        return False
    lower, upper = dist[: observed + 1].sum(), dist[observed:].sum()
    return min(lower, upper) >= ALPHA / 2.0


def check_report(report: dict, protocol: str, attack: str, trials: int) -> list[str]:
    """Return the laws `report` breaks for the requested experiment."""
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    missing = REPORT_KEYS - report.keys()
    if missing:
        return [f"missing report keys {sorted(missing)}"]
    problems = []
    spec = report["spec"]
    if not isinstance(spec, dict) or (spec.get("protocol"), spec.get("attack")) != (protocol, attack):
        problems.append(f"spec echo does not match {protocol}/{attack}")
    if report["trials"] != trials:
        problems.append(f"trials {report['trials']} != requested {trials}")

    if attack == "none":
        if report["detection_rate"] != 0:
            problems.append(f"honest detection_rate {report['detection_rate']} != 0")
        if report["wrong_result_rate"] not in (0, None):
            problems.append(f"honest wrong_result_rate {report['wrong_result_rate']} not 0 or null")
    if protocol == "jiang" and attack in ("outside", "participant"):
        if report["detection_rate"] != 0:
            problems.append(f"jiang/{attack} detection_rate {report['detection_rate']} != 0")
    if protocol == "jiang" and attack == "participant" and report["completed_trials"]:
        if report["secret_recovery_rate"] != 1.0:
            problems.append(f"jiang/participant secret_recovery_rate {report['secret_recovery_rate']} != 1")

    law = detection_law(protocol, attack)
    if law is not None:
        problems += _check_rows(report, law)
    if attack in CASE1_ERROR:
        problems += _check_case1(report, CASE1_ERROR[attack])
    return problems


def _check_rows(report: dict, law) -> list[str]:
    rows = report["detection_by_trap_count"]
    if not rows or not all(
        isinstance(r, dict) and ROW_KEYS <= r.keys()
        and all(isinstance(r[key], int) and r[key] >= 0 for key in ("k", "trials", "detected"))
        for r in rows
    ):
        return ["detection_by_trap_count rows missing or malformed"]
    if sum(r["trials"] for r in rows) != report["trials"]:
        return ["detection_by_trap_count rows do not cover every trial"]
    observed = sum(r["detected"] for r in rows)
    groups = [(r["trials"], law(r["k"])) for r in rows]
    if not _plausible(observed, groups):
        expected = sum(n * p for n, p in groups)
        return [f"pooled detections {observed} beyond the {SIGMAS:g}-sigma tail of the law (mean {expected:.2f})"]
    return []


def _check_case1(report: dict, error: float) -> list[str]:
    rounds = report["case1_rounds_total"]
    rate = report["case1_error_rate"]
    if not rounds:
        return [] if rate is None else ["case1_error_rate set without case-1 rounds"]
    if rate is None or not _plausible(round(rate * rounds), [(rounds, error)]):
        return [f"case1_error_rate {rate} beyond the {SIGMAS:g}-sigma tail of {error}"]
    return []
