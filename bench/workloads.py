"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Each workload builds its inputs in ``setup(seed)`` (timed as set-up, and
repeatable: it rebuilds everything from scratch) and runs one unit of work
per ``run_pass``.  The program is called only through its public modules,
looked up at call time so that the traced run's wrappers apply.  README.md
next to this file says why each workload exists.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Optional

import corpusgen
from terw import algebras, graphs, groups, pipeline, structure

import checks
from checks import prime_power
from hostspeed import Sampler, SpeedClock
from measure import cpu_seconds, nproc
from tracing import Tracer

PALEY_LADDER = (13, 29, 61, 81)


@dataclass
class PassResult:
    wall: float  # scaled to a fixed host speed (hostspeed.SpeedClock)
    cpu: float  # scaled like wall
    graphs: int  # graphs completed, for graphs_per_s
    latencies_ms: list[float]  # scaled like wall
    attempted: int
    failed: list[str]
    records: int = 0
    errors: list[str] = field(default_factory=list)
    raw_wall: float = 0.0
    kernel_s: float = 0.0  # median host-speed kernel time during the pass, 0 unscaled
    segments: list = field(default_factory=list)  # (start, end, kernel s) per scaled segment


def _pass_result(clock: SpeedClock, cpu: float, graphs: int, lat_ms, checked, records, errors) -> PassResult:
    attempted, failed = checked
    return PassResult(
        sum(clock.norm), cpu * clock.factor, graphs, lat_ms, attempted, failed, records, errors,
        raw_wall=sum(clock.raw), kernel_s=median(clock.kernel) if clock.kernel else 0.0,
        segments=list(zip(clock.marks, clock.marks[1:], clock.kernel)),
    )


def stratified_sample(items, cost, k: int, rng: random.Random) -> list:
    """One item from each of k equal-count strata of items ranked by cost.

    Every seed's sample then spans the whole cost range, so the pass cost
    varies far less between seeds than with a simple random sample.
    """
    ranked = sorted(items, key=lambda it: (cost(it), it))
    n = len(ranked)
    if not 0 < k <= n:
        raise ValueError(f"sample size {k} out of range 1..{n}")
    picks = [ranked[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]
    rng.shuffle(picks)
    return picks


def _scan_pass(lines, reference, *, jobs, decompose, gaps, tracer: Optional[Tracer], sampler) -> PassResult:
    """Scan lines and emit JSONL; per-graph latency from the record stream.

    gaps=True: time between consecutive graphs' records (one worker, so the
    graph's own classification time), each gap scaled on its own.
    gaps=False: time from the start of the scan until the graph's records
    arrive (a pool returns whole chunks, so gaps inside a chunk are empty),
    scaled like the whole pass.
    """
    records, marks, errors = [], [], []
    last = None
    c0 = cpu_seconds()
    clock = SpeedClock(sampler, pool=jobs > 1)
    t0 = time.perf_counter()
    scan = pipeline.scan_corpus(lines, filter="all", jobs=jobs, decompose=decompose)
    try:
        with tracer.span("pipeline.scan") if tracer else contextlib.nullcontext():
            for rec in scan:
                if rec.graph6 != last:
                    if gaps:
                        clock.lap()
                    else:
                        marks.append(time.perf_counter())
                    last = rec.graph6
                records.append(rec)
    except Exception as exc:  # a failed scan still reports its finished graphs
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        if hasattr(scan, "close"):
            scan.close()  # a scan generator shuts its pool down on close
    out = pipeline.emit_report(records, "jsonl")
    clock.lap()  # the rest of the stream and emit_report
    cpu = cpu_seconds() - c0
    clock.finish()
    if gaps:
        lat = clock.norm[:-1]
    else:
        lat = [(m - t0) * clock.factor for m in marks]
    checked = checks.check_scan(out, [line.decode() for line in lines], reference)
    return _pass_result(clock, cpu, len(lat), [x * 1000 for x in lat], checked, len(records), errors)


class ScanN7:
    """scan_corpus(jobs=1, filter="all") of seeded samples of 7-vertex graphs.

    The seed draws `samples` stratified samples and consecutive passes take
    them in turn, so the latency percentiles of a run pool a hundred or more
    distinct graphs instead of repeating one sample's 25.
    """

    name = "scan-n7"
    jobs = 1
    sampler: Optional[Sampler] = None  # scales timings when set
    sample_size = 25
    samples = 8
    min_passes = 4  # 100 latency samples, enough for a true p90

    def __init__(self):
        self.reference = checks.load_scan_reference("scan_n7.jsonl")
        self.cost = json.loads((checks.REFERENCE / "n7_cost.json").read_text())

    def setup(self, seed: int) -> None:
        corpusgen.all_graphs.cache_clear()
        lines = corpusgen.corpus_lines(7, min_n=7)
        rng = random.Random(seed)
        self.sample_list = [
            stratified_sample(lines, lambda line: self.cost[line.decode()], self.sample_size, rng)
            for _ in range(self.samples)
        ]
        self.passes = 0

    def run_pass(self, jobs: int = 1, tracer: Optional[Tracer] = None) -> PassResult:
        if tracer is None:  # a traced pass repeats the sample of the untraced one before it
            self.passes += 1
        lines = self.sample_list[(self.passes - 1) % self.samples]
        return _scan_pass(
            lines, self.reference, jobs=jobs, decompose=False, gaps=True, tracer=tracer, sampler=self.sampler
        )


class DecomposeN6Par:
    """scan_corpus(jobs=nproc, decompose=True) of all connected graphs, n <= 6,
    in the generator's order whatever the seed.

    A shuffled order made the latency percentiles follow the seed: the
    median completion time moved by a fifth with where the order put the
    costly 6-vertex graphs.
    """

    name = "decompose-n6-par"
    sampler: Optional[Sampler] = None
    min_passes = 2

    def __init__(self):
        self.jobs = nproc()
        self.reference = checks.load_scan_reference("decompose_n6.jsonl")

    def setup(self, seed: int) -> None:
        corpusgen.all_graphs.cache_clear()
        self.lines = corpusgen.corpus_lines(6)

    def run_pass(self, jobs: Optional[int] = None, tracer: Optional[Tracer] = None) -> PassResult:
        return _scan_pass(
            self.lines, self.reference, jobs=jobs or self.jobs, decompose=True, gaps=False, tracer=tracer,
            sampler=self.sampler,
        )


class PaleyLadder:
    """build_T levels 0-4 and wedderburn_decompose of Paley(q), base vertex 0."""

    name = "paley-ladder"
    jobs = 1
    sampler: Optional[Sampler] = None
    min_passes = 2  # a pass takes about 20 s; one pass a run was too noisy

    def __init__(self):
        self.reference = checks.load_paley_reference()

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.inputs = []
        for q in PALEY_LADDER:
            graph, pc = graphs.gen_paley(*prime_power(q))
            self.inputs.append((q, graph, groups.paley_stabilizer_generators(pc)))

    def warm_up(self) -> None:
        """The small graphs of the ladder once, untimed: the first large
        eigensplit in a process costs about a second more than later ones."""
        for q, graph, stab in self.inputs[:2]:
            for level in range(5):
                try:
                    structure.wedderburn_decompose(algebras.build_T(level, graph, 0, stab=stab), seed=self.seed)
                except Exception:  # the timed passes count and report it
                    pass

    def run_pass(self, jobs: int = 1, tracer: Optional[Tracer] = None) -> PassResult:
        """One Paley graph's five levels is one latency sample; each algebra
        is scaled on its own."""
        results, ends, errors = [], [], []
        c0 = cpu_seconds()
        clock = SpeedClock(self.sampler)
        for q, graph, stab in self.inputs:
            for level in range(5):
                try:
                    alg = algebras.build_T(level, graph, 0, stab=stab)
                    dec = structure.wedderburn_decompose(alg, seed=self.seed)
                    results.append((q, level, alg.dim, dec.type.blocks))
                except Exception as exc:  # counted as a failed algebra
                    errors.append(f"Paley({q}) T{level}: {type(exc).__name__}: {exc}")
                    results.append((q, level, None, None))
                clock.lap()
            ends.append(len(clock.marks) - 1)
        cpu = cpu_seconds() - c0
        clock.finish()
        lat = [sum(clock.norm[a:b]) * 1000 for a, b in zip([0] + ends, ends)]
        checked = checks.check_paley(results, self.reference)
        return _pass_result(clock, cpu, len(self.inputs), lat, checked, 0, errors)


WORKLOADS = {w.name: w for w in (ScanN7, DecomposeN6Par, PaleyLadder)}
