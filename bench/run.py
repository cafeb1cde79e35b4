#!/usr/bin/env python3
"""Benchmark of the freecone CLI, end to end (--trace 0) or layer by layer (--trace 1).

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Runs ``freecone.cli.main`` in process, one job at a time in a closed loop
with a single client and no worker processes.  A round runs every job of
the workload once, in the order the seed picks.  After one warm-up round
the benchmark runs whole rounds until their time adds up to --seconds, and
at least MIN_ROUNDS rounds and MIN_JOBS jobs.  Every output is checked (see
workloads.py).  The metrics and their units come from BENCHMARK.json:

- --trace 0 reports the end-to-end metrics, with set-up time taken as the
  median over SETUP_PROBES fresh interpreters started between rounds.  Job
  times are scaled to the reference host speed (see reference_kernel);
- --trace 1 alternates untraced and traced rounds and reports the
  per-layer metrics of one round (self times are medians over the traced
  rounds) and the traced over the untraced round time.

The last line of stdout is one JSON object.  Per-job records (and, when
traced, the spans) go to bench/out/.  The exit code is 1 when a job fails.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import spans

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
MIN_JOBS = 100
MIN_ROUNDS = 5
SETUP_PROBES = 9
# job seconds between two timings of the reference kernel
CHUNK_S = 0.2
# the reference kernel's median time (kernel_seconds) on the 2-core host
# where the bounds were set: scaled job times read as that host's wall
# times at its median speed
REFERENCE_S = 0.0135


def import_cli():
    """freecone.cli from this checkout's src/, never an installed copy."""
    package = SRC / "freecone"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no package sources at {package}")
    sys.path.insert(0, str(SRC))
    from freecone import cli

    if pathlib.Path(cli.__file__).resolve().parent != package:
        sys.exit(f"bench: imported freecone from {cli.__file__}, not from {package}")
    return cli


def execute(cli, argv, stdin_text: str):
    """One CLI job in process: exit code, stdout, stderr and seconds taken."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    except Exception:  # a crash fails this job; the run goes on
        rc = "exception"
        err.write(traceback.format_exc())
    finally:
        dt = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue(), dt


_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int64)
_MASKS = np.arange(1 << 16, dtype=np.int64)
# the numpy part writes only into these, so that its time does not depend
# on how the process's allocator stands after the jobs before it
_BUFFERS = np.empty((3, 1 << 16), dtype=np.int64)


def reference_kernel() -> int:
    """Fixed work of the kinds freecone's jobs do: least covering masks in a
    family of bit masks, dicts and sets of frozensets, sorted tuples and JSON
    text in Python, and a numpy table of popcount minima over 2^16 masks with
    gathers and a bincount.  Nothing in it calls freecone, so a change to the
    package leaves its time alone, while a busy host slows it about as much
    as it slows the jobs."""
    full = (1 << 14) - 1
    family = [((0x5A5 * i) ^ (i << 3)) & full for i in range(1, 60)]
    least = {}
    for x in range(0, 1 << 11, 3):
        best = full
        for z in family:
            if x & z == x and z.bit_count() < best.bit_count():
                best = z
        least[x] = best
    rows = sorted((v.bit_count(), k, v) for k, v in least.items())
    sets = [frozenset(range(i % 17, i % 17 + 9)) for i in range(200)]
    meets: dict = {}
    for a in sets:
        for b in sets[:20]:
            c = a & b
            meets[c] = meets.get(c, 0) + len(a | b)
    text = json.dumps([rows, sorted(sorted(c) for c in meets)])

    ranks, tmp, idx = _BUFFERS
    ranks.fill(99)
    for k, z in enumerate(family[:16]):
        np.bitwise_and(_MASKS, z, out=idx)
        np.take(_POPCOUNT, idx, out=tmp)
        tmp += k % 5
        np.minimum(ranks, tmp, out=ranks)
    np.bitwise_xor(_MASKS, 0x2A5, out=idx)
    np.take(ranks, idx, out=tmp)
    np.take(_POPCOUNT, _MASKS, out=idx)
    idx *= 32
    idx += tmp
    return len(json.loads(text)) + int(np.bincount(idx).sum())


def kernel_seconds() -> float:
    """Median of three timings of the reference kernel, with the cyclic
    garbage collector off so that the size of the heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Runner:
    def __init__(self, cli, workload, checker):
        self.cli = cli
        self.workload = workload
        self.checker = checker
        self.attempted = 0
        self.failures: list = []
        self.kernel_s: list = []  # the last round's kernel times

    def round(self, tracer=None):
        """Run and check every job once: the round's wall seconds and
        {job key: (exit code, stdout, stderr, seconds, scaled seconds)}.

        The reference kernel is timed before the first job and after every
        CHUNK_S of job time.  A job's scaled seconds are its seconds times
        REFERENCE_S over the mean kernel time before and after its chunk,
        so a spell in which the host runs slow cancels out."""
        results = {}
        t0 = time.perf_counter()
        chunk: list = []
        self.kernel_s = [kernel_seconds()]

        def scale_chunk():
            nonlocal chunk
            self.kernel_s.append(kernel_seconds())
            factor = 2 * REFERENCE_S / sum(self.kernel_s[-2:])
            for key in chunk:
                results[key] = (*results[key], results[key][3] * factor)
            chunk = []

        for unit in self.workload.units:
            stdin = ""
            for job in unit:
                if tracer is not None:
                    tracer.job = job.key
                results[job.key] = execute(self.cli, job.argv, stdin)
                stdin = results[job.key][1]
                chunk.append(job.key)
            if sum(results[key][3] for key in chunk) >= CHUNK_S:
                scale_chunk()
        if chunk:
            scale_chunk()
        wall = time.perf_counter() - t0
        outputs = {key: r[1] for key, r in results.items()}
        for job in self.workload.jobs:
            rc, out, err, _, _ = results[job.key]
            self.attempted += 1
            reason = self.checker.check(job, rc, out, outputs)
            if reason is not None:
                self.failures.append({"job": job.key, "reason": reason, "stderr": err[-2000:]})
        return wall, results


def setup_seconds(docs_dir: pathlib.Path) -> float:
    """Interpreter start to the last document read, in a fresh process,
    scaled like the job times by the kernel timed before and after it."""
    before = kernel_seconds()
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(docs_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds = float(proc.stdout.split()[-1]) - t0
    return seconds * 2 * REFERENCE_S / (before + kernel_seconds())


def job_record(job, samples: list, scaled: list) -> dict:
    return {
        "job": job.key,
        "argv": job.argv,
        "expected_exit": job.rc,
        **job.info,
        "samples": len(samples),
        "median_ms": statistics.median(samples) * 1e3,
        "min_ms": min(samples) * 1e3,
        "scaled_median_ms": statistics.median(scaled) * 1e3,
    }


def measure(runner, seconds: float, min_rounds: int, traced: bool, between=None):
    """Whole rounds until they add up to `seconds`; traced rounds alternate
    with untraced ones when `traced`.  `between(spent)` runs after each
    round with the round time spent so far."""
    def timed(tracer=None):
        """The round's wall seconds, {job key: seconds}, {job key: scaled
        seconds} and the median kernel time."""
        wall, results = runner.round(tracer)
        return (wall, {key: r[3] for key, r in results.items()},
                {key: r[4] for key, r in results.items()},
                statistics.median(runner.kernel_s))

    untraced, tracers = [], []
    spent = 0.0
    while spent < seconds or len(untraced) < min_rounds:
        untraced.append(timed())
        spent += untraced[-1][0]
        if traced:
            tracer = spans.Tracer()
            with tracer.installed():
                tracers.append((*timed(tracer), tracer))
            spent += tracers[-1][0]
        if between is not None:
            between(spent)
    return untraced, tracers


def end_to_end(workload, rounds, setup: list) -> dict:
    samples = [dt for _, _, scaled, _ in rounds for dt in scaled.values()]
    return {
        # jobs done over the (scaled) time they took
        "jobs_per_s": len(workload.jobs) * len(rounds) / sum(samples),
        "job_p50_ms": statistics.median(samples) * 1e3,
        "job_p90_ms": statistics.quantiles(samples, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(names: list, rounds, tracers) -> tuple[dict, list]:
    by_round = []
    for *_, tracer in tracers:
        jobs = spans.job_totals(tracer.spans)
        total: dict = {}
        for counts in jobs.values():
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        by_round.append((total, jobs))
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            # job time only: the rounds also time the reference kernel
            values[name] = statistics.median(sum(t[1].values()) for t in tracers) / (
                statistics.median(sum(r[1].values()) for r in rounds)
            )
        else:
            values[name] = statistics.median(total.get(name, 0) for total, _ in by_round)
    return values, by_round


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = import_cli()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    os.chdir(ROOT)  # job arguments name documents relative to the checkout
    docs_dir = OUT.relative_to(ROOT) / f"{args.workload}-seed{args.seed}"
    workload = workloads.build(args.workload, args.seed, str(docs_dir))
    runner = Runner(cli, workload, workloads.Checker(workload, workloads.load_expected()))
    n_jobs = len(workload.jobs)
    # percentiles need MIN_JOBS samples; a traced run needs one round of each kind
    min_rounds = 1 if args.trace else max(MIN_ROUNDS, math.ceil(MIN_JOBS / n_jobs))

    setup: list = []

    def probe(spent):
        # one probe after each of SETUP_PROBES evenly spaced marks of the
        # run, so the probes meet the host's busy and quiet spells in about
        # the share the rounds do; probes a short run misses follow it
        if len(setup) < SETUP_PROBES and spent >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_seconds(docs_dir))

    if not args.trace:
        setup_seconds(docs_dir)  # compiles bytecode and fills the file cache
    runner.round()  # warm-up
    rounds, tracers = measure(
        runner, args.seconds, min_rounds, bool(args.trace), None if args.trace else probe
    )
    if not args.trace:
        setup += [setup_seconds(docs_dir) for _ in range(SETUP_PROBES - len(setup))]

    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values, by_round = per_layer([m["name"] for m in metric_spec], rounds, tracers)
    else:
        values = end_to_end(workload, rounds, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}

    samples = {job.key: [r[1][job.key] for r in rounds] for job in workload.jobs}
    scaled = {job.key: [r[2][job.key] for r in rounds] for job in workload.jobs}
    records = [job_record(job, samples[job.key], scaled[job.key]) for job in workload.jobs]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "jobs_per_round": n_jobs,
        "round_s": [r[0] for r in rounds],
        # median kernel time of each round; REFERENCE_S over it is the
        # factor that round's job times were scaled by, about
        "kernel_s": [r[3] for r in rounds],
        "setup_s": setup,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "metrics": metrics,
        "jobs": records,
    }
    if args.trace:
        first = by_round[0][1]
        for rec in records:
            rec["traced_ms"] = tracers[0][1][rec["job"]] * 1e3
            rec["layers"] = first.get(rec["job"], {})
        result["spans"] = [
            [r, *span.as_list()] for r, (*_, tr) in enumerate(tracers) for span in tr.spans
        ]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result) + "\n", encoding="utf-8")

    all_samples = [dt for per_job in scaled.values() for dt in per_job]
    print(f"{args.workload} seed {args.seed}: {n_jobs} jobs a round, {len(rounds)} untraced"
          f" rounds, {len(all_samples)} timed jobs", end="")
    if args.trace:
        print(f", {len(tracers)} traced rounds")
    else:
        beyond = sum(dt * 1e3 > values["job_p90_ms"] for dt in all_samples)
        print(f", {beyond} of them beyond job_p90_ms")
        wall_jobs = n_jobs * len(rounds) / sum(sum(per_job) for per_job in samples.values())
        print(f"  unscaled: {wall_jobs:.6g} jobs/s; median kernel time"
              f" {statistics.median(r[3] for r in rounds) * 1e3:.4g} ms,"
              f" REFERENCE_S {REFERENCE_S * 1e3:.4g} ms")
    for name, m in metrics.items():
        print(f"  {name:50s} {m['value']:.6g} {m['unit']}")
    error_rate = len(runner.failures) / runner.attempted
    print(f"  {'error_rate':50s} {error_rate:.6g} ({len(runner.failures)} of"
          f" {runner.attempted} jobs failed)")
    print(f"  records: {path.relative_to(ROOT)}")
    for failure in runner.failures[:5]:
        print(f"bench: {failure['job']}: {failure['reason']}\n{failure['stderr']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    sys.exit(main())
