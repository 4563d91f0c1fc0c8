#!/usr/bin/env python3
"""Benchmark of sqpclab: Monte Carlo trials per second through the CLI.

    python3 bench/run.py --workload sweep-l8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout; it imports sqpclab from `src/` there.
One operation is one experiment: an in-process call of
`sqpclab.cli.main([... "--output", "json"])` with stdout captured, checked
against the laws in `checker.py`. Experiments run back to back in one
process and one thread (closed loop). Every cycle runs all 12 (protocol,
attack) pairs once, in an order drawn from the seed.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run (see `tracing.py`). The bounded throughput,
`trials_per_ref`, is trials per second times the mean time of a fixed host
reference kernel (`reference.py`) timed on the same core between
experiments, so the host's drift cancels. The last line of stdout is one
JSON object with keys correct, attempted, failed and metrics. See
`bench/README.md` for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import tracing

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SRC = ROOT / "src"

PROTOCOLS = ("jiang", "improved")
ATTACKS = (
    "none",
    "outside",
    "participant",
    "participant-forward",
    "intercept-resend",
    "measure-resend",
)
PAIRS = tuple((p, a) for p in PROTOCOLS for a in ATTACKS)

# secret bits L and trials per experiment; rounds per trial are 5L (jiang)
# and 11L (improved) at the default rounds factors. Why these three: README.
WORKLOADS = {
    "sweep-l8": (8, 200),
    "short-l1": (1, 4000),
    "long-l64": (64, 8),
}

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 11

# Seconds of experiments between samples of the host reference kernel.
REFERENCE_EVERY_S = 1.0


@dataclass(frozen=True)
class Experiment:
    protocol: str
    attack: str
    trials: int
    argv: tuple[str, ...]


def cycles(workload: str, seed: int):
    """Endless stream of cycles: each is all 12 pairs once, in a seeded order.

    The same seed yields the same experiments, argv for argv.
    """
    secret_bits, trials = WORKLOADS[workload]
    rng = random.Random(seed)
    while True:
        order = list(PAIRS)
        rng.shuffle(order)
        yield [
            Experiment(protocol, attack, trials, (
                "--protocol", protocol, "--attack", attack,
                "--secret-bits", str(secret_bits), "--trials", str(trials),
                "--seed", str(rng.randrange(2**32)), "--secrets", "random",
                "--output", "json",
            ))
            for protocol, attack in order
        ]


def load_program():
    """Import `sqpclab.cli` from this checkout's src/, or exit non-zero."""
    package = SRC / "sqpclab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import sqpclab.cli

    if Path(sqpclab.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported sqpclab from {sqpclab.cli.__file__}, not {package}")
    return sqpclab.cli


def execute(main, exp: Experiment) -> tuple[float, list[str]]:
    """Run one experiment; return its wall seconds and the laws it broke."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(exp.argv))
    except Exception as exc:  # a raising experiment is a failed operation
        return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, [f"exit status {code}"]
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return elapsed, ["stdout is not one JSON document"]
    return elapsed, checker.check_report(report, exp.protocol, exp.attack, exp.trials)


class Tally:
    """Seconds per experiment for each pair, plus attempted, failed and trial counts."""

    def __init__(self):
        self.seconds = {pair: [] for pair in PAIRS}
        self.attempted = 0
        self.failed = 0
        self.trials = 0

    def add(self, exp: Experiment, elapsed: float, problems: list[str]) -> None:
        self.seconds[(exp.protocol, exp.attack)].append(elapsed)
        self.attempted += 1
        self.trials += exp.trials
        if problems:
            self.failed += 1
            print(f"FAILED {shlex.join(exp.argv)}: {'; '.join(problems)}", file=sys.stderr)

    def covered(self) -> bool:
        return all(self.seconds.values())

    def pair_rate(self, pair, trials: int) -> float:
        return trials / statistics.fmean(self.seconds[pair])

    def trials_per_s(self, trials: int) -> float:
        """Trials per second of one cycle with every pair at its mean time.

        For whole cycles this is total trials over total time. Averaging per
        pair keeps a trailing part-cycle from tilting the mix of pairs. Means,
        not medians: the host's speed flips between a fast and a slow state,
        and a median of a few samples snaps to one state or the other, which
        widened the run-to-run spread when tried.
        """
        cycle = sum(statistics.fmean(s) for s in self.seconds.values())
        return trials * len(PAIRS) / cycle


class Reference:
    """The host reference kernel (`reference.py`), timed in a child process.

    The host's speed drifts by tens of percent over minutes. The kernel does
    a fixed job, so its mean time over a run tracks that drift; trials per
    reference time cancels it. Sampled between experiments, about once per
    REFERENCE_EVERY_S, never while an experiment runs.
    """

    def __init__(self):
        self.seconds = []
        self.last = time.perf_counter()

    def __enter__(self):
        cmd = [sys.executable, str(SCRIPT.parent / "reference.py")]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"error: reference kernel exited with status {self.proc.wait()}")
        self.seconds.append(float(line))
        self.last = time.perf_counter()

    def keep_up(self) -> None:
        """Take the samples owed since the last one (at most 4 at once)."""
        owed = min(4, int((time.perf_counter() - self.last) / REFERENCE_EVERY_S))
        for _ in range(owed):
            self.sample()


def warm_up(main, workload: str) -> None:
    """One tiny untimed experiment per pair, so first-call costs stay out."""
    secret_bits, _ = WORKLOADS[workload]
    for protocol, attack in PAIRS:
        with contextlib.redirect_stdout(io.StringIO()):
            main(["--protocol", protocol, "--attack", attack,
                  "--secret-bits", str(secret_bits), "--trials", "2", "--output", "json"])


def run_untraced(main, stream, seconds: float, time_setup, reference) -> tuple[Tally, list[float]]:
    """Issue experiments until `seconds` pass and every pair has a sample.

    Calls `time_setup` SETUP_SAMPLES times at even intervals between
    experiments, so the set-up samples see the same stretch of machine time
    as the experiments do, and keeps `reference` sampled likewise.
    """
    tally, setup = Tally(), []
    start = time.perf_counter()
    reference.sample()
    for cycle in stream:
        for exp in cycle:
            elapsed = time.perf_counter() - start
            if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append(time_setup())
            if elapsed >= seconds and tally.covered():
                setup += [time_setup() for _ in range(SETUP_SAMPLES - len(setup))]
                reference.sample()
                return tally, setup
            reference.keep_up()
            tally.add(exp, *execute(main, exp))


def run_traced(main, stream, seconds: float):
    """Run every experiment untraced and traced, in alternating order.

    Stops once `seconds` pass and the first cycle is complete. Returns the
    untraced and traced tallies, the tracer of the first cycle (its counts
    repeat exactly for a seed) and the tracer merged over all experiments.
    """
    plain, traced = Tally(), Tally()
    merged = tracing.Tracer()
    first = None
    deadline = time.perf_counter() + seconds
    for index, cycle in enumerate(stream):
        tracer = tracing.Tracer()
        traced_main = tracer.wrap("cli.main", main)
        for exp in cycle:
            if first is not None and time.perf_counter() >= deadline:
                merged.merge(tracer)
                return plain, traced, first, merged
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer.installed():
                        traced.add(exp, *execute(traced_main, exp))
                else:
                    plain.add(exp, *execute(main, exp))
        first = first or tracer
        merged.merge(tracer)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it could issue the
    first experiment (sqpclab and numpy imported, first inputs generated)."""
    cmd = [sys.executable, str(SCRIPT), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        sys.exit(f"error: set-up probe failed (exit {proc.returncode})")
    return elapsed


def probe_setup(workload: str, seed: int) -> None:
    load_program()
    next(cycles(workload, seed))
    print("ready", flush=True)


def layer_metrics(first, merged, plain: Tally, traced: Tally, trials: int) -> dict:
    """Per-layer metrics, as (value, unit) by name.

    Counts come from the first traced cycle and repeat exactly for a seed;
    times come from every traced experiment.
    """
    first_trials = trials * len(PAIRS)
    all_trials = traced.trials
    root = merged.total("cli.main")
    us = 1e6
    m = {}

    def share(layer):
        return merged.layer_self(layer) / root, "frac"

    m["cli.parse_args.ms"] = merged.mean("cli.parse_args") * 1e3, "ms"
    m["cli.emit_report.ms"] = merged.mean("cli.emit_report") * 1e3, "ms"
    m["cli.share"] = share("cli")
    m["harness.trial_rng.us"] = merged.mean("harness.trial_rng") * us, "us"
    m["harness.run_trial.self_us"] = merged.mean("harness.run_trial", own=True) * us, "us"
    m["harness.make_strategy.us"] = merged.mean("harness.make_strategy") * us, "us"
    m["harness.aggregate.us_per_trial"] = merged.total("harness.aggregate") / all_trials * us, "us/trial"
    m["harness.share"] = share("harness")
    for protocol, attack in PAIRS:
        m[f"harness.pair_trials_per_s.{protocol}.{attack}"] = (
            plain.pair_rate((protocol, attack), trials), "trials/s")
    rounds = merged.rounds
    m["protocol.run_protocol.self_us_per_round"] = (
        merged.self_time("protocol.run_protocol") / rounds * us if rounds else 0.0, "us/round")
    m["protocol.rounds_per_trial"] = first.rounds / first_trials, "rounds/trial"
    m["protocol.share"] = share("protocol")
    outcomes = first.outcomes
    m["protocol.completed_frac"] = outcomes["completed"] / first_trials, "frac"
    m["protocol.abort.bell_check_frac"] = outcomes["bell_check_failed"] / first_trials, "frac"
    m["protocol.abort.trap_check_frac"] = outcomes["trap_check_failed"] / first_trials, "frac"
    m["protocol.abort.insufficient_rounds_frac"] = outcomes["insufficient_rounds"] / first_trials, "frac"
    m["adversary.transmit.calls_per_trial"] = first.calls("adversary.transmit") / first_trials, "calls/trial"
    m["adversary.transmit.self_us"] = merged.mean("adversary.transmit", own=True) * us, "us"
    observe = merged.total("adversary.observe_choices") + merged.total("adversary.observe_publication")
    m["adversary.observe.us_per_trial"] = observe / all_trials * us, "us/trial"
    m["adversary.share"] = share("adversary")
    for op in tracing.QSIM_OPS:
        m[f"qsim.{op}.calls_per_trial"] = first.calls(f"qsim.{op}") / first_trials, "calls/trial"
        m[f"qsim.{op}.us"] = merged.mean(f"qsim.{op}", own=True) * us, "us"
    m["qsim.share"] = share("qsim")
    m["trace.overhead_frac"] = 1.0 - traced.trials_per_s(trials) / plain.trials_per_s(trials), "frac"
    return m


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "command": shlex.join(sys.orig_argv),
    }


def emit(metrics: dict, notes: dict, attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>14.6g} {unit:<12} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_workload(args) -> None:
    program = load_program()
    trials = WORKLOADS[args.workload][1]
    stream = cycles(args.workload, args.seed)
    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    # One core for this process and every child it starts, so the reference
    # kernel is timed on the core the experiments run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    warm_up(program.main, args.workload)
    if args.trace:
        plain, traced, first, merged = run_traced(program.main, stream, args.seconds)
        metrics = layer_metrics(first, merged, plain, traced, trials)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        notes = {"trace.overhead_frac": f"({plain.attempted} untraced, {traced.attempted} traced experiments)"}
    else:
        with Reference() as reference:
            tally, setup = run_untraced(program.main, stream, args.seconds,
                                        lambda: time_setup(args.workload, args.seed), reference)
        attempted, failed = tally.attempted, tally.failed
        reference_s = statistics.fmean(reference.seconds)
        metrics = {
            "trials_per_ref": (tally.trials_per_s(trials) * reference_s, "trials/ref"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        notes = {
            "trials_per_ref": f"(trials_per_s x reference_ms / 1000; {attempted} experiments)",
            "setup_s": f"(median of {len(setup)} fresh processes)",
            "peak_rss_mib": "(ru_maxrss of this process, 1 sample)",
        }
        print(f"{'trials_per_s':<52} {tally.trials_per_s(trials):>14.6g} {'trials/s':<12} "
              f"(wall clock, per-pair means over {attempted} experiments, {trials} trials each)")
        print(f"{'reference_ms':<52} {reference_s * 1e3:>14.6g} {'ms':<12} "
              f"(mean of {len(reference.seconds)} host reference samples)")
    print(f"{'failed_frac':<52} {failed / attempted:>14.6g} {'frac':<12} ({failed} of {attempted} experiments)")
    emit(metrics, notes, attempted, failed)


def run_all(args) -> None:
    """Run every workload in its own process; merge their result lines."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} exited with status {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": value for w, r in results.items() for name, value in r["metrics"].items()},
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
