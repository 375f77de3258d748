#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload rds-bubble --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, through a
count-only metric shim. ``--trace 1`` makes one traced repetition instead
(the program's ``Tracer`` plus a timing shim), derives the per-layer
metrics, and writes its spans to ``perfbench/out/``. ``--profile`` writes
the top cProfile frames of one repetition to ``perfbench/out/`` and
measures nothing. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fresh-process set-up probes per run; ``setup_s`` comes from their median.
SETUP_PROBES = 9
#: Seconds a bare interpreter takes to start and exit on the reference
#: host; ``setup_s`` is set-up time on a host that fast (see README.md).
BARE_START_S = 0.05
#: Untraced repetitions on the traced input, for the tracing overhead.
OVERHEAD_REPS = 3


def _use_checkout() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the program's source is missing ({SRC}); run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


def _stop_children() -> None:
    """Wait for every child process before exiting. A spawn start launches
    multiprocessing's resource tracker, which otherwise outlives this
    process by a moment and is left unreaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def _spool_dir() -> str:
    path = OUT / f"spool-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


# ----------------------------------------------------------------------
# Set-up time: import the program and construct the metric and model in a
# fresh process, timed from before the process starts.
# ----------------------------------------------------------------------
def setup_probe(name: str) -> None:
    from repro import BUBBLE

    from perfbench.shim import CountingMetric
    from perfbench.workloads import WORKLOADS

    BUBBLE(CountingMetric(WORKLOADS[name].metric()))
    print(time.perf_counter())


def _bare_start() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], timeout=60, check=True)
    return time.perf_counter() - t0


def setup_seconds(name: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of each probe, and each probe's seconds divided by
    the mean of the bare interpreter starts timed just before and after
    it."""
    values, ratios, bare = [], [], _bare_start()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        values.append(float(done.stdout.strip().splitlines()[-1]) - t0)
        after = _bare_start()
        ratios.append(2.0 * values[-1] / (bare + after))
        bare = after
    return values, ratios


# ----------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float) -> dict:
    from perfbench.shim import CountingMetric
    from perfbench.workloads import WORKLOADS, Recorder, check_answers, sub_seed

    spec = WORKLOADS[name]
    spool = _spool_dir()
    reps, problems = [], []
    # ref[i] and ref[i + 1] time the reference kernel just before and just
    # after repetition i.
    ref = [spec.reference()]
    # The number of repetitions follows from --seconds, not from the clock,
    # so a seed always measures the same inputs however fast the machine.
    for i in range(max(3, round(seconds / spec.rep_seconds))):
        inst = spec.make(sub_seed(seed, i))
        reps.append((inst, spec.run(inst, CountingMetric(spec.metric(), spool), Recorder())))
        ref.append(spec.reference())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb += max(rep.worker_rss_kb for _, rep in reps)

    attempted = sum(rep.attempted for _, rep in reps)
    failed = sum(rep.failed for _, rep in reps)
    for i, (inst, rep) in enumerate(reps):
        found = spec.check(inst, rep) + check_answers(rep, spec.metric)[0]
        if i == 0:
            found += spec.second_build_check(inst, rep)[0]
        problems += found
        failed += len(found)
    kept = [i for i, (_, rep) in enumerate(reps) if rep.model is not None]
    if not kept:
        sys.exit("perfbench: every repetition failed")
    ok = [reps[i][1] for i in kept]
    # Each wall time in units of the reference kernel timed around it.
    wall_ref = [2.0 * reps[i][1].wall_s / (ref[i] + ref[i + 1]) for i in kept]
    # Medians over the run's many small inputs: a repetition slowed by a
    # burst of load from elsewhere on the host, or an input that needs an
    # extra rebuild, moves a median far less than a mean.
    median = statistics.median
    setup, setup_ratio = setup_seconds(name)
    metrics = {
        "setup_s": (median(setup_ratio) * BARE_START_S, "s"),
        "wall_ref": (median(wall_ref), "ref"),
        "evals_per_object": (median([r.pairs / r.n_objects for r in ok]), "evals/object"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ari": (median([r.ari for r in ok]), "ARI"),
    }
    notes = {
        "repetitions": len(reps),
        "wall_s": median([r.wall_s for r in ok]),
        "reference_s": median(ref),
        "setup_raw_s": median(setup),
        "fail_share": failed / attempted,
        "n_subclusters": [r.n_subclusters for r in ok],
        "problems": problems,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes}


# ----------------------------------------------------------------------
# The traced run: the per-layer metrics
# ----------------------------------------------------------------------
def measure_traced(name: str, seed: int) -> dict:
    from repro.observability import Tracer
    from repro.observability.sinks import ListSink

    from perfbench.layers import layer_metrics, nest, program_spans, write_trace
    from perfbench.shim import CountingMetric, TimingMetric
    from perfbench.workloads import (
        WORKLOADS,
        Recorder,
        check_answers,
        fm_collapse_sweep,
        sub_seed,
    )

    spec = WORKLOADS[name]
    spool = _spool_dir()
    inst = spec.make(sub_seed(seed, 0))
    untraced = []
    for _ in range(OVERHEAD_REPS):
        untraced.append(spec.run(inst, CountingMetric(spec.metric(), spool), Recorder()))
    attempted = sum(rep.attempted for rep in untraced)
    failed = sum(rep.failed for rep in untraced)

    rec = Recorder()
    sink = ListSink()
    t_init = rec.clock()
    tracer = Tracer(sinks=[sink])
    metric = TimingMetric(spec.metric(), spool)
    with tracer:
        rep = spec.run(inst, metric, rec, tracer)
    tracer.close()
    attempted, failed = attempted + rep.attempted, failed + rep.failed
    if rep.model is None:
        sys.exit("perfbench: the traced repetition failed")

    answer_problems, brute_ms = check_answers(rep, spec.metric)
    build_problems, inline_fit_s = spec.second_build_check(inst, rep)
    problems = spec.check(inst, rep) + answer_problems + build_problems
    attempted += 1
    if sum(tracer.calls_by_site.values()) != metric.n_calls:
        problems.append("the tracer's calls_by_site does not sum to metric.n_calls")
    failed += len(problems)

    sweep = []
    for model, sweep_tracer in fm_collapse_sweep(seed, lambda: Tracer(sinks=[ListSink()])):
        sweep_tracer.close()
        sweep.append((model, nest(program_spans(sweep_tracer.sinks[0].events, 0.0))))

    spans = nest(rec.spans + program_spans(sink.events, t_init))
    metrics = layer_metrics(rep, metric, tracer, spans, untraced, brute_ms, inline_fit_s, sweep)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
    write_trace(str(trace_path), spans, metric)
    notes = {"trace": str(trace_path.relative_to(ROOT)), "problems": problems}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes}


# ----------------------------------------------------------------------
# --profile: the hottest frames of one repetition
# ----------------------------------------------------------------------
def profile(name: str, seed: int) -> None:
    import cProfile
    import pstats

    from perfbench.shim import CountingMetric
    from perfbench.workloads import WORKLOADS, Recorder, sub_seed

    spec = WORKLOADS[name]
    inst = spec.make(sub_seed(seed, 0))
    metric = CountingMetric(spec.metric(), _spool_dir())
    profiler = cProfile.Profile()
    profiler.runcall(spec.run, inst, metric, Recorder())
    OUT.mkdir(exist_ok=True)
    path = OUT / f"profile-{name}-seed{seed}.txt"
    with open(path, "w") as fh:
        stats = pstats.Stats(profiler, stream=fh)
        for key in ("tottime", "cumulative"):
            fh.write(f"==== top frames by {key} ====\n")
            stats.sort_stats(key).print_stats(30)
    print(path.read_text())
    print(f"profile written to {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout()

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    try:
        if args.profile:
            profile(args.workload, args.seed)
            return 0
        if args.trace:
            result = measure_traced(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    finally:
        _stop_children()
        shutil.rmtree(OUT / f"spool-{os.getpid()}", ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    got = {key: unit for key, (_, unit) in result["metrics"].items()}
    if got != want:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    for key, (value, unit) in result["metrics"].items():
        print(f"{key:38s} {value:>16.6g} {unit}")
    for key, value in result["notes"].items():
        print(f"# {key}: {value}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
