"""Outside-in tracing of sqpclab's layers, for the benchmark's traced run only.

`Tracer.installed()` replaces the public functions and methods of each layer
with timing wrappers, at module or class level, and restores the originals
on exit. Nothing under `src/` knows about it. Each wrapper keeps a span open
around the call; a span's self time is its duration minus the time of the
spans it opened. Spans are not stored one by one (a sweep makes millions of
simulator calls); each span name accumulates its call count, total time and
self time in memory instead.

Layer of a span = the part of its name before the first dot:

    cli        cli.main (the root), cli.parse_args, cli.emit_report
    harness    harness.run_experiment, .run_trial, .trial_rng,
               .make_strategy (strategy construction), .aggregate
    protocol   protocol.run_protocol
    adversary  adversary.<method> of every ChannelStrategy class
    qsim       qsim.<op> of Simulator
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

LAYERS = ("cli", "harness", "protocol", "adversary", "qsim")
QSIM_OPS = ("prepare_bell", "prepare_basis", "measure_z", "measure_bell", "merge")
STRATEGY_METHODS = ("bind", "transmit", "observe_choices", "observe_publication", "state")

# (defining module, function, span name). Every sqpclab module binding the
# same function object is patched, so the span fires whichever module calls it.
FUNCTIONS = (
    ("sqpclab.cli", "parse_args", "cli.parse_args"),
    ("sqpclab.cli", "emit_report", "cli.emit_report"),
    ("sqpclab.harness", "run_experiment", "harness.run_experiment"),
    ("sqpclab.harness", "run_trial", "harness.run_trial"),
    ("sqpclab.harness", "trial_rng", "harness.trial_rng"),
    ("sqpclab.adversary", "make_strategy", "harness.make_strategy"),
    ("sqpclab.harness", "aggregate", "harness.aggregate"),
)


class Tracer:
    """Per-span-name [calls, total seconds, self seconds] plus trial tallies."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self._children = [0.0]  # time of closed child spans, per open span
        self.trials = 0  # TrialReports returned by run_protocol
        self.rounds = 0
        self.outcomes: Counter = Counter()  # abort reason value or "completed"

    def wrap(self, name: str, fn, on_result=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _tally_trial(self, result) -> None:
        _, transcript, report = result
        self.trials += 1
        self.rounds += len(transcript.rounds)
        reason = report.outcome.abort_reason
        self.outcomes["completed" if reason is None else reason.value] += 1

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        restore = []

        def patch(owner, attr, wrapper):
            restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        modules = [m for n, m in sys.modules.items() if n == "sqpclab" or n.startswith("sqpclab.")]
        targets = [(m, f, n, None) for m, f, n in FUNCTIONS]
        targets.append(("sqpclab.protocol", "run_protocol", "protocol.run_protocol", self._tally_trial))
        try:
            for module_name, attr, name, on_result in targets:
                original = getattr(sys.modules[module_name], attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original, on_result)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patch(module, key, wrapper)
            simulator = sys.modules["sqpclab.qsim"].Simulator
            for op in QSIM_OPS:
                if op in simulator.__dict__:
                    patch(simulator, op, self.wrap(f"qsim.{op}", simulator.__dict__[op]))
            adversary = sys.modules["sqpclab.adversary"]
            base = adversary.ChannelStrategy
            for cls in vars(adversary).values():
                if isinstance(cls, type) and issubclass(cls, base):
                    for method in STRATEGY_METHODS:
                        if method in cls.__dict__:
                            patch(cls, method, self.wrap(f"adversary.{method}", cls.__dict__[method]))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def merge(self, other: "Tracer") -> None:
        for name, (calls, total, own) in other.spans.items():
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        self.trials += other.trials
        self.rounds += other.rounds
        self.outcomes.update(other.outcomes)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def mean(self, name: str, own: bool = False) -> float:
        """Mean seconds per call, total or self; 0 for a span that never fired."""
        calls = self.calls(name)
        return (self.self_time(name) if own else self.total(name)) / calls if calls else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(s[2] for n, s in self.spans.items() if n.split(".", 1)[0] == layer)
