#!/usr/bin/env python3
"""A fixed kernel that measures how fast the host is right now.

    python3 bench/reference.py

Reads one line from stdin per sample, runs the kernel once and writes its
wall seconds as one line to stdout; exits when stdin closes. `run.py`
starts it as a child process and samples it between experiments, so the
kernel keeps its own interpreter and heap and no change to sqpclab can
change its speed: only the host can.

The kernel mixes the kinds of work sqpclab does per round: small numpy
arrays and products (the simulator), dict and list churn and string
formatting (the protocol and adversary bookkeeping), and draws from a
numpy Generator.
"""
from __future__ import annotations

import math
import sys
import time

import numpy as np

HADAMARD_A = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), np.eye(2))
STEPS = 1500


def kernel() -> list[int]:
    rng = np.random.default_rng(12345)
    registers = {}
    outcomes = [0, 0, 0, 0]
    for step in range(STEPS):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        if rng.random() < 0.5:
            psi = HADAMARD_A @ psi
        probs = np.abs(psi) ** 2
        outcome = min(3, int(np.searchsorted(np.cumsum(probs), rng.random() * probs.sum())))
        outcomes[outcome] += 1
        registers[step % 97] = (psi, f"q{step}", [outcome] * 3)
        if step % 7 == 0:
            registers.pop((step * 31) % 97, None)
    return outcomes


def main() -> None:
    kernel()  # first-call costs stay out of the samples
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
