"""A fixed numpy kernel, timed inside every run to put the run's timings on
one scale whatever speed the host is running at.

The host this benchmark was tuned on switches between speed states that
last minutes and move the timings of a run by up to half (see the README).
The kernel never calls the package, so a change to the package does not
move it; timings multiplied by its nominal time over its median time in the
same run read as seconds on the host in its usual state.

The kernel runs in a child process, one sample at a time while the benchmark
waits, so its memory does not count in the benchmark's peak RSS and its heap
does not depend on what the package allocated before. Its three parts copy
the three costs that dominate the workloads:
- "gather": split arrays gathered and multiplied, then two matmuls, as in
  forms.product_coeffs, into buffers allocated once;
- "loop": small indexed updates in a Python loop, as in
  forms.contract_coeffs, bound by per-call overhead;
- "fault": a fresh array above glibc's largest mmap threshold (32 MiB),
  written once, so each sample maps and faults in the same pages, as the
  dense path does for its large gathers.
A workload's scale uses the parts whose costs its ops share.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

# Each part's median time on the machine described in the README.
NOMINAL_S = {"gather": 0.0106, "loop": 0.0110, "fault": 0.0099}
# Samples owed per second since the last sample: a visit after an op takes
# them, at most MAX_BURST, so the kernel takes about 6% of a run's time and
# even a run of few long ops holds dozens of samples.
SAMPLES_PER_S = 2.0
MAX_BURST = 8
FAULT_WORDS = 34 * 2**17  # 34 MiB of float64

PARTS = ("gather", "loop", "fault")


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 70, 300)
        cols = rng.integers(0, 70, 300)
        self.w = rng.standard_normal((8, 70 * 70))
        self.rows = (rows[:, None] * 70 + rows[None, :]).ravel()
        self.cols = (cols[:, None] * 70 + cols[None, :]).ravel()
        self.embed = rng.standard_normal((56, 300))
        self.left = np.empty((8, 300 * 300))
        self.right = np.empty((8, 300 * 300))
        self.half = np.empty((8, 300, 56))
        self.out = np.empty((8, 56, 56))
        self.small = rng.standard_normal((4, 20, 20))
        self.insert = rng.integers(0, 20, (15, 6))
        self.signs = rng.standard_normal((15, 6))

    def gather(self) -> None:
        np.take(self.w, self.rows, axis=1, out=self.left)
        np.take(self.w, self.cols, axis=1, out=self.right)
        np.multiply(self.left, self.right, out=self.left)
        np.matmul(self.left.reshape(8, 300, 300), self.embed.T, out=self.half)
        np.matmul(self.embed, self.half, out=self.out)

    def loop(self) -> None:
        for _ in range(80):
            acc = np.zeros((4, 15, 15))
            for i in range(6):
                coef = self.signs[:, i][:, None] * self.signs[:, i][None, :]
                acc += coef * self.small[..., self.insert[:, i][:, None], self.insert[:, i][None, :]]

    def fault(self) -> None:
        np.ones(FAULT_WORDS)

    def sample(self) -> list[float]:
        times = []
        for part in (self.gather, self.loop, self.fault):
            start = time.perf_counter()
            part()
            times.append(time.perf_counter() - start)
        return times


def serve() -> None:
    """Child side: one sample, as a JSON line, per line read."""
    kernel = Kernel()
    kernel.sample()
    for _ in sys.stdin:
        print(json.dumps(kernel.sample()), flush=True)


class Yardstick:
    """Parent side: starts the child, asks it for samples, stops it."""

    def __init__(self):
        self.samples: list[list[float]] = []
        self._last = -float("inf")
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        self._child.wait(timeout=60)

    def sample(self, count: int = 2) -> None:
        for _ in range(count):
            self._child.stdin.write("\n")
            self._child.stdin.flush()
            self.samples.append(json.loads(self._child.stdout.readline()))
        self._last = time.perf_counter()

    def visit(self) -> None:
        owed = int(SAMPLES_PER_S * (time.perf_counter() - self._last))
        if owed:
            self.sample(min(owed, MAX_BURST))

    def median_s(self, parts=PARTS) -> float:
        """Median over the samples of the given parts' summed time."""
        index = [PARTS.index(part) for part in parts]
        return statistics.median(sum(sample[i] for i in index) for sample in self.samples)

    def part_medians_s(self) -> dict[str, float]:
        return {name: statistics.median(parts[i] for parts in self.samples) for i, name in enumerate(PARTS)}

    def scale(self, parts=PARTS) -> float:
        """The parts' nominal time over their median time: multiply a time
        by it."""
        return sum(NOMINAL_S[part] for part in parts) / self.median_s(parts)


if __name__ == "__main__":
    serve()
