"""The scalar engine's reports in the batched engine's terms, for the tests
that compare the two engines: `lanes_of` gives `run_trial` reports as
`batch.Lanes`, and `scalar_report` folds an experiment's report from them.
"""
import numpy as np

from sqpclab.batch import REASONS, Lanes
from sqpclab.harness import fold_report, run_trial


def lanes_of(reports) -> Lanes:
    """The fields of scalar `TrialReport`s."""
    rows = [
        (
            REASONS.index(r.outcome.abort_reason),
            r.outcome.first_differing_ordinal or 0,
            bool(r.verdict_correct),
            r.n,
            r.m,
            r.case1_rounds,
            r.case1_errors,
            r.trap_mismatches,
            -1 if r.adversary_recovered_secret_correct is None
            else int(r.adversary_recovered_secret_correct),
        )
        for r in reports
    ]
    return Lanes(*map(np.array, zip(*rows)))


def scalar_report(spec):
    """The experiment's report, folded from `run_trial` reports."""
    return fold_report(spec, [lanes_of(run_trial(spec, t) for t in range(spec.trials))])
