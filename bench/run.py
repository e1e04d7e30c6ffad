"""terw benchmark: one workload per run, every output checked.

    python3 bench/run.py --workload scan-n7 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout (the program is imported from
src/, the corpus generator from tests/).  With --trace 0 the last stdout
line is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced pass instead.  Metadata, the metrics and
(traced) the spans are also written to bench/out/.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import subprocess
import sys
import time
from statistics import median

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("scan-n7", "decompose-n6-par", "paley-ladder")

# set-up is repeated at least this often, then until SETUP_BUDGET_S is spent
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 7
SETUP_BUDGET_S = 2.0
IMPORT_REPS = 5  # after one untimed import that warms the file cache
# a traced run fails its gate when layer self times miss traced wall by more
SELF_SUM_TOLERANCE = 0.10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_setup(wl, seed: int, sampler) -> list[float]:
    """Scaled seconds of each repetition of the workload's set-up."""
    from hostspeed import SpeedClock

    clock = SpeedClock(sampler)
    while len(clock.marks) <= SETUP_MIN_REPS or (
        len(clock.marks) <= SETUP_MAX_REPS and clock.marks[-1] - clock.marks[0] < SETUP_BUDGET_S
    ):
        wl.setup(seed)
        clock.lap()
    return clock.finish().norm


def import_seconds(sampler) -> list[float]:
    """Scaled time of `import terw` in fresh interpreters (only the first
    import in a process is real, and it varies too much to take once).  Each
    child's own timing is scaled like the time its process was alive."""
    from hostspeed import SpeedClock

    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import terw; print(time.perf_counter() - t)"
    )
    cmd = [sys.executable, "-c", code, str(ROOT / "src")]
    subprocess.run(cmd, capture_output=True, check=True, timeout=60)
    clock = SpeedClock(sampler, pool=True)
    times = []
    for _ in range(IMPORT_REPS):
        times.append(float(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60).stdout))
        clock.lap()
    clock.finish()
    return [t * norm / raw for t, norm, raw in zip(times, clock.norm, clock.raw)]


def timed_passes(wl, seconds: float) -> list:
    """At least wl.min_passes passes, then more until another one of median
    length would overrun `seconds` of real time."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass())
        elapsed = time.perf_counter() - start
        if len(passes) >= wl.min_passes and elapsed + median(p.raw_wall for p in passes) > seconds:
            return passes


def end_to_end(wl, passes, setup_s: float) -> tuple[dict, dict]:
    from measure import peak_rss_mb, tail_percentile

    lat = [x for p in passes for x in p.latencies_ms]
    pct, p90 = tail_percentile(lat)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    metrics = {
        "wall_s": (median(p.wall for p in passes), "s"),
        "graphs_per_s": (median(p.graphs / p.wall for p in passes), "1/s"),
        "graph_p50_ms": (median(lat), "ms"),
        "graph_p90_ms": (p90, "ms"),
        "cpu_s": (median(p.cpu for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(wl.jobs if wl.jobs > 1 else 0), "MB"),
        "ok_frac": (1.0 - failed / attempted if attempted else 0.0, "frac"),
    }
    info = {"passes": len(passes), "latency_samples": len(lat), "graph_tail_pct": round(pct, 2)}
    return metrics, info


def layer_metrics(wl, traced, tracer, base_wall: float) -> dict:
    """Per-layer metrics of one traced pass; base_wall is the untraced wall
    the classification time is spread over for parallel efficiency."""
    from tracing import layer_self_times, self_times, total_times

    st, tt = self_times(tracer.spans), total_times(tracer.spans)
    calls, counts = tracer.calls, tracer.counts
    tried, kept = counts["linalg.insert_tried"], counts["linalg.insert_kept"]
    layers = layer_self_times(tracer.spans)
    m = {
        "linalg.closure_s": (tt.get("linalg.closure", 0.0), "s"),
        "linalg.insert_tried": (tried, "count"),
        "linalg.insert_kept": (kept, "count"),
        "linalg.insert_kept_ratio": (kept / tried if tried else 0.0, "frac"),
        "linalg.center_s": (tt.get("linalg.center", 0.0), "s"),
        "linalg.center_calls": (calls["linalg.center"], "count"),
        "algebras.build_self_s": (st.get("algebras.build", 0.0), "s"),
        "algebras.chain_self_s": (st.get("algebras.chain", 0.0), "s"),
        "algebras.build_calls": (calls["algebras.build"], "count"),
        "structure.decompose_s": (tt.get("structure.decompose", 0.0), "s"),
        "structure.numeric_s": (st.get("structure.decompose", 0.0), "s"),
        "structure.decompose_calls": (calls["structure.decompose"], "count"),
        "structure.eig_calls": (counts["structure.eig_calls"], "count"),
        "groups.aut_s": (tt.get("groups.aut", 0.0), "s"),
        "groups.aut_calls": (calls["groups.aut"], "count"),
        "groups.stab_s": (tt.get("groups.stab", 0.0), "s"),
        "groups.stab_calls": (calls["groups.stab"], "count"),
        "groups.orbitals_s": (tt.get("groups.orbitals", 0.0), "s"),
        "pipeline.classify_self_s": (st.get("pipeline.classify", 0.0), "s"),
        "pipeline.emit_s": (tt.get("pipeline.emit", 0.0), "s"),
        "pipeline.records": (traced.records, "count"),
        "pipeline.parallel_efficiency": (tt.get("pipeline.classify", 0.0) / (wl.jobs * base_wall), "frac"),
        "graphs.parse_s": (tt.get("graphs.parse", 0.0), "s"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.self_sum_frac": (sum(layers.values()) / traced.wall, "frac"),
    }
    for layer, t in layers.items():
        m[f"{layer}.self_s"] = (t, "s")
    return m


def traced_run(wl, seconds: float):
    """Untraced and traced one-worker passes in turn until `seconds` is used
    (at least one of each), after one untraced pass at the workload's own
    worker count when that is more than one.  Returns the per-layer
    metrics of the traced pass of median wall time, every pass, the spans
    of every traced pass and the span sites missing from the program.
    No time here is scaled to host speed: they are raw, like the spans."""
    from tracing import Tracer, instrument

    done, untraced, traced, spans = [], [], [], []
    pool_wall = None
    if wl.jobs > 1:
        done.append(wl.run_pass())
        pool_wall = done[-1].wall
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_pass(jobs=1))
        tracer = Tracer()
        with instrument(tracer) as missing:
            p = wl.run_pass(jobs=1, tracer=tracer)
        traced.append((p, tracer))
        spans.append(tracer.spans)
        pair = median(u.wall for u in untraced) + median(t.wall for t, _ in traced)
        if time.perf_counter() - start + pair > seconds:
            break
    base = median(u.wall for u in untraced)
    p, tr = sorted(traced, key=lambda t: t[0].wall)[(len(traced) - 1) // 2]
    metrics = layer_metrics(wl, p, tr, pool_wall or base)
    metrics["trace.overhead_frac"] = (p.wall / base - 1.0, "frac")
    done += untraced + [p for p, _ in traced]
    return metrics, done, spans, missing


def run_one(args) -> int:
    import workloads
    from hostspeed import Sampler
    from measure import run_metadata

    seed = args.seed % 2**32
    wl = workloads.WORKLOADS[args.workload]()
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans = None
    self_ok = True
    # end-to-end timings are scaled to host speed; traced ones stay raw
    with contextlib.ExitStack() as stack:
        sampler = None if args.trace else stack.enter_context(Sampler(out))
        wl.sampler = sampler
        imports = import_seconds(sampler)
        setups = timed_setup(wl, seed, sampler)
        setup_s = median(imports) + median(setups)
        meta = run_metadata(ROOT, wl.name, seed)
        meta.update(jobs=wl.jobs, seconds=args.seconds, import_reps=imports, setup_reps=setups)
        if hasattr(wl, "sample_size"):
            meta["sample_size"] = wl.sample_size  # graphs per pass; passes take the seed's samples in turn
        elif hasattr(wl, "lines"):
            meta["sample_size"] = len(wl.lines)
        if hasattr(wl, "warm_up"):
            wl.warm_up()

        if args.trace:
            metrics, done, spans, missing = traced_run(wl, args.seconds)
            meta["trace_sites_missing"] = missing
            share = metrics["trace.self_sum_frac"][0]
            if abs(share - 1.0) > SELF_SUM_TOLERANCE:
                self_ok = False
                print(f"trace gate: layer self times are {share:.3f} of traced wall", file=sys.stderr)
        else:
            done = timed_passes(wl, args.seconds)
            metrics, info = end_to_end(wl, done, setup_s)
            meta.update(info)
            meta["host_samples"] = len(sampler.rows)
            host_rows = sampler.rows

    attempted = sum(p.attempted for p in done)
    failures = [f for p in done for f in p.failed]
    errors = [e for p in done for e in p.errors]
    meta["pass_walls"] = [p.wall for p in done]
    meta["pass_walls_raw"] = [p.raw_wall for p in done]
    meta["pass_kernel_s"] = [p.kernel_s for p in done]
    for msg in (errors + failures)[:20]:
        print(f"FAIL {msg}", file=sys.stderr)

    dump = {"meta": meta, "metrics": {k: v for k, (v, _) in metrics.items()}, "failures": failures, "errors": errors}
    if spans is not None:
        dump["spans"] = spans
    else:
        dump["segments"] = [p.segments for p in done]
        dump["host_samples"] = host_rows
    (out / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(dump))

    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:18s} {name:28s} {value:14.6g} {unit}")
    result = {
        "correct": not failures and not errors and self_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/terw/__init__.py", "tests/corpusgen.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a terw source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
