"""Host-speed sampling: times scaled to a fixed host speed.

The benchmark runs on a few virtual CPUs of a shared host.  Each virtual CPU
switches, often within a second, between a fast and a slow state (up to
1.7 times slower), in CPU time as much as in wall time, so raw timings of
the same work spread by a third between runs.  A sampler process times a
fixed pure-Python kernel on every CPU in turn, pinned to it, every
INTERVAL_S, and records the CPU the benchmark's main thread last ran on.
A segment of work is then scaled by PROBE_REF_S over the median kernel
time during it: the kernel time on the main thread's CPU for work in one
thread, the mean over all CPUs for a process pool.  Times before and after
a program change are scaled the same way, so their ratio is kept.

    python3 bench/hostspeed.py PID OUT   # the sampler itself; Sampler starts it
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from statistics import median

PROBE_ITERS = 7_000
# the kernel's usual time on the 2-CPU machine the benchmark was written on,
# so scaled times are seconds at that machine's usual speed
PROBE_REF_S = 0.001
INTERVAL_S = 0.1
START_TIMEOUT_S = 10.0


def probe_kernel(n: int) -> int:
    s, d = 0, {}
    for i in range(n):
        s = (s * 31 + i) % 1000003
        d[i & 255] = s
    return s


def _last_cpu(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"


def sample(pid: int, out: str) -> None:
    """Write `time main_cpu kernel_s...` lines (one kernel time per CPU)
    until process `pid`, the parent, is gone."""
    cpus = sorted(os.sched_getaffinity(0))
    with open(out, "w") as fh:
        fh.write(" ".join(map(str, cpus)) + "\n")
        while os.getppid() == pid:
            try:
                row = [time.perf_counter(), _last_cpu(pid)]
            except (OSError, ValueError, IndexError):
                return
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                t0 = time.perf_counter()
                probe_kernel(PROBE_ITERS)
                row.append(time.perf_counter() - t0)
            fh.write(" ".join(map(repr, row)) + "\n")
            fh.flush()
            time.sleep(INTERVAL_S)


class Sampler:
    """The sampler process for the life of a `with` block, and its samples."""

    def __init__(self, out_dir) -> None:
        self.path = os.path.join(str(out_dir), f"hostspeed-{os.getpid()}.txt")
        self.proc = None
        self.rows: list[tuple[float, int, list[float]]] = []
        self.cpus: list[int] = []
        self._fh = None
        self._partial = ""

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), str(os.getpid()), self.path])
        try:
            self.wait_past(time.perf_counter(), START_TIMEOUT_S)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._fh is not None:
            self._fh.close()
        try:
            os.remove(self.path)
        except OSError:
            pass

    def _read(self) -> None:
        if self._fh is None:
            try:
                self._fh = open(self.path)
            except FileNotFoundError:
                return
        self._partial += self._fh.read()
        *lines, self._partial = self._partial.split("\n")
        for line in lines:
            if not self.cpus:
                self.cpus = [int(x) for x in line.split()]
                continue
            t, cpu, *probes = line.split()
            self.rows.append((float(t), int(cpu), [float(x) for x in probes]))

    def wait_past(self, t: float, timeout: float = 2.0) -> None:
        """Block until a sample taken after time t has been read."""
        deadline = time.perf_counter() + timeout
        while True:
            self._read()
            if self.rows and self.rows[-1][0] > t:
                return
            if self.proc.poll() is not None:
                raise RuntimeError(f"host-speed sampler exited with code {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("host-speed sampler is not sampling")
            time.sleep(INTERVAL_S / 4)

    def kernel_s(self, a: float, b: float, pool: bool) -> float:
        """Median kernel time over [a, b]; the two samples nearest the middle
        when none falls inside."""
        rows = [r for r in self.rows if a <= r[0] <= b]
        if not rows:
            mid = (a + b) / 2
            rows = sorted(self.rows, key=lambda r: abs(r[0] - mid))[:2]
        vals = []
        for _, cpu, probes in rows:
            if pool or cpu not in self.cpus:
                vals.append(sum(probes) / len(probes))
            else:
                vals.append(probes[self.cpus.index(cpu)])
        return median(vals)


class SpeedClock:
    """Consecutive segments of work, marked by lap(), scaled by the samples
    taken during each.  Without a sampler, scaled times equal raw times."""

    def __init__(self, sampler: Sampler | None, pool: bool = False) -> None:
        self.sampler = sampler
        self.pool = pool
        self.marks = [time.perf_counter()]
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.kernel: list[float] = []

    def lap(self) -> None:
        self.marks.append(time.perf_counter())

    def finish(self) -> "SpeedClock":
        """Scale every segment; waits for the samples covering the last one."""
        if self.sampler is not None:
            self.sampler.wait_past(self.marks[-1])
        for a, b in zip(self.marks, self.marks[1:]):
            self.raw.append(b - a)
            if self.sampler is None:
                self.norm.append(b - a)
            else:
                k = self.sampler.kernel_s(a, b, self.pool)
                self.kernel.append(k)
                self.norm.append((b - a) * PROBE_REF_S / k)
        return self

    @property
    def factor(self) -> float:
        """Scaled over raw time of all segments."""
        raw = sum(self.raw)
        return sum(self.norm) / raw if raw > 0 else 1.0


if __name__ == "__main__":
    sample(int(sys.argv[1]), sys.argv[2])
