#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting.

    python3 bench/selftest.py

Runs one small real experiment per law, checks that its report passes, then
feeds the benchmark deliberately corrupted copies and asserts that each is
counted as a failed experiment, and rare but legitimate copies (one trial
undetected under a near-certain detection law) and asserts that they pass. Also checks that a non-zero exit status and
a raised exception count as failures. Exits non-zero if any is missed.
Not part of the repository's test suite, so it never slows Tier-1.
"""
from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout

import run

CORRUPTIONS = {
    ("jiang", "none"): [
        ("honest trial detected", lambda r: r.update(detection_rate=0.005)),
        ("honest verdict wrong", lambda r: r.update(wrong_result_rate=0.01)),
        ("schema key dropped", lambda r: r.pop("case1_error_rate")),
        ("trial count changed", lambda r: r.update(trials=r["trials"] - 1)),
    ],
    ("jiang", "outside"): [
        ("jiang outside attack detected", lambda r: r.update(detection_rate=0.5)),
    ],
    ("jiang", "participant"): [
        ("secret only partly recovered", lambda r: r.update(secret_recovery_rate=0.5)),
    ],
    ("improved", "outside"): [
        ("outside attack never detected",
         lambda r: [row.update(detected=0) for row in r["detection_by_trap_count"]]),
        ("detection rows dropped", lambda r: r.update(detection_by_trap_count=[])),
    ],
    ("improved", "participant"): [
        ("participant detected at half the law",
         lambda r: [row.update(detected=row["detected"] // 2) for row in r["detection_by_trap_count"]]),
    ],
    ("jiang", "measure-resend"): [
        ("case-1 error rate of intercept-resend", lambda r: r.update(case1_error_rate=0.75)),
    ],
    ("improved", "intercept-resend"): [
        ("a tenth of the trials go undetected",
         lambda r: [row.update(detected=row["detected"] - row["trials"] // 10)
                    for row in r["detection_by_trap_count"]]),
    ],
}




def one_undetected(report: dict) -> None:
    """One trial of the lowest-k row goes undetected.

    Under a resend law the chance is about 4^-k per trial: rare, but a
    legitimate outcome the checker must accept.
    """
    row = min((r for r in report["detection_by_trap_count"] if r["detected"]), key=lambda r: r["k"])
    row["detected"] -= 1


# Rare but legitimate edits of genuine reports: each must still pass.
LEGITIMATE = {
    ("jiang", "intercept-resend"): [("one trial undetected", one_undetected)],
    ("improved", "intercept-resend"): [("one trial undetected", one_undetected)],
}


def experiment(protocol: str, attack: str) -> run.Experiment:
    argv = ("--protocol", protocol, "--attack", attack, "--secret-bits", "8",
            "--trials", "400", "--seed", "11", "--secrets", "random", "--output", "json")
    return run.Experiment(protocol, attack, 400, argv)


def printing(report: dict):
    """A stand-in for `sqpclab.cli.main` that prints a fixed report."""
    def main(argv):
        sys.stdout.write(json.dumps(report))
        return 0
    return main


def counted_failed(main, exp: run.Experiment) -> bool:
    tally = run.Tally()
    tally.add(exp, *run.execute(main, exp))
    return tally.failed == 1


def main() -> int:
    cli = run.load_program()
    misses = []
    for pair in dict.fromkeys([*CORRUPTIONS, *LEGITIMATE]):
        protocol, attack = pair
        exp = experiment(protocol, attack)
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(list(exp.argv))
        report = json.loads(out.getvalue())
        if counted_failed(printing(report), exp):
            misses.append(f"{protocol}/{attack}: genuine report counted as failed")
        for label, corrupt in CORRUPTIONS.get(pair, []):
            bad = copy.deepcopy(report)
            corrupt(bad)
            if not counted_failed(printing(bad), exp):
                misses.append(f"{protocol}/{attack}: corrupted report passed ({label})")
        for label, edit in LEGITIMATE.get(pair, []):
            rare = copy.deepcopy(report)
            edit(rare)
            if counted_failed(printing(rare), exp):
                misses.append(f"{protocol}/{attack}: legitimate report counted as failed ({label})")

    def raising(argv):
        raise RuntimeError("engine fault")

    exp = experiment("jiang", "none")
    if not counted_failed(lambda argv: 2, exp):
        misses.append("non-zero exit status passed")
    if not counted_failed(raising, exp):
        misses.append("raised exception passed")
    if not counted_failed(printing("not a report"), exp):
        misses.append("non-object JSON passed")

    for miss in misses:
        print(f"MISS {miss}")
    corrupted = sum(len(c) for c in CORRUPTIONS.values()) + 3
    legitimate = sum(len(e) for e in LEGITIMATE.values())
    print(f"selftest: {len(dict.fromkeys([*CORRUPTIONS, *LEGITIMATE]))} genuine reports, "
          f"{legitimate} rare legitimate reports, {corrupted} corrupted operations, "
          f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
