"""Benchmark for the liecoh package.

Run from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each invocation is one fresh process running one workload as a closed loop:
a single caller makes one task call after another, single-threaded, with
nothing else running alongside.  Inputs are generated from --seed.  The
process repeats passes over the workload's task list until the next pass
would end after --seconds, checks every output, and prints the metrics named
in BENCHMARK.json; the last line of stdout is one JSON object.  The
workloads and their groups are described in README.md and built in
workloads.py.

End-to-end metrics (--trace 0): wall_s (one pass, sum of task times,
median over passes), max_task_s (slowest task of a pass, median), setup_s
(interpreter start to first task: imports plus input generation, median of
several fresh processes) and peak_rss_mb.  Times are in reference seconds
(speed.py), which removes most of the shared machine's speed swings; the
raw pass times are printed alongside.  The error rate, failed tasks over
tasks attempted, is reported as `failed`/`attempted` and printed.

Per-layer metrics (--trace 1): the first half of the time runs untraced
passes (group times, reference wall time), the second half traced passes
(tracer.py); the spans are written to .bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15


def import_package():
    """Make the checkout's src/liecoh importable, or explain why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import liecoh
    except ImportError as exc:
        return f"cannot import liecoh from {src}: {exc}"
    if Path(liecoh.__file__).resolve().parent != src / "liecoh":
        return f"liecoh was imported from {liecoh.__file__}, not {src}"
    return None


def output_digest(data) -> str:
    # the same text as liecoh.invalg.canonical_json, without calling the
    # package, so that digests taken in traced passes add no spans
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Pass(NamedTuple):
    wall_s: float          # sum of task times, reference seconds
    max_task_s: float      # slowest task, reference seconds
    groups: dict           # group -> reference seconds
    raw_wall_s: float      # sum of task times as measured, with sampling


class Runner:
    """Runs passes over a task list and checks every output."""

    def __init__(self, tasks, frozen):
        self.tasks = tasks
        self.frozen = frozen
        self.verified = {}     # task key -> digest of the checked output
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def _verify(self, task, out):
        digest = output_digest(task.view(out))
        if task.key in self.verified:
            if self.verified[task.key] != digest:
                return "output differs from the first checked pass"
            return None
        error = None
        if not task.seeded:
            if task.key not in self.frozen:
                error = "no frozen digest"
            elif self.frozen[task.key] != digest:
                error = "digest differs from the frozen one"
        if error is None and task.check is not None:
            error = task.check(out)
        self.verified[task.key] = None if error else digest
        return error

    def _run_task(self, task):
        """Call and check one task; returns when the call started and
        ended."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = task.call()
        except (Exception, SystemExit) as exc:
            out, error = None, f"raised {type(exc).__name__}: {exc}"
            if self.failed < 3:
                traceback.print_exc()
        else:
            error = None
        t1 = perf_counter()
        if error is None:
            error = self._verify(task, out)
        if error is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{task.key}: {error}")
        return t0, t1

    def run_pass(self) -> Pass:
        gc.collect()   # every pass starts from the same heap state
        with speed.Speedometer() as meter:
            spans = [(task.group, self._run_task(task)) for task in self.tasks]
        groups = {}
        longest = 0.0
        for group, (t0, t1) in spans:
            seconds = meter.reference_seconds(t0, t1)
            groups[group] = groups.get(group, 0.0) + seconds
            longest = max(longest, seconds)
        return Pass(sum(groups.values()), longest, groups,
                    sum(t1 - t0 for _, (t0, t1) in spans))


def run_passes(runner, deadline, tracer=None):
    """Passes until the next one would end after `deadline` (at least one)."""
    results, layer_values = [], []
    longest = 0.0
    while True:
        t0 = perf_counter()
        if tracer is None:
            results.append(runner.run_pass())
        else:
            tracer.reset()
            tracer.install()
            try:
                results.append(runner.run_pass())
            finally:
                tracer.uninstall()
            layer_values.append(tracer.values())
        longest = max(longest, perf_counter() - t0)
        if perf_counter() + longest > deadline:
            return results, layer_values


def setup_seconds(workload, seed):
    """Median time, in reference seconds, from spawning a fresh interpreter
    to its first task."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--setup-only"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
            if child.wait() != 0 or not line.startswith("ready "):
                raise RuntimeError("set-up probe failed")
        loop_s, sampling_s = map(float, line.split()[1:])
        samples.append((elapsed - sampling_s) * speed.REFERENCE_S / loop_s)
    return statistics.median(samples)


def _percentile_line(values):
    """Median, the highest percentile with at least ten samples above it,
    and the sample count."""
    n = len(values)
    line = f"median {statistics.median(values):.4f} s"
    if n >= 11:
        line += f", p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f} s"
    else:
        line += " (no percentile has ten samples above it)"
    return f"{line}, n = {n}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, report readiness and exit "
                             "(used to time set-up)")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("the following arguments are required: --seconds")
    if not args.setup_only:
        return _run(args)
    with speed.Speedometer() as meter:
        return _run(args, meter)


def _run(args, meter=None):
    error = import_package()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    frozen = json.loads((HERE / "digests.json").read_text())[args.workload]

    workdir = OUT_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = workloads.build(args.workload, args.seed, workdir)
        if meter is not None:
            # ready, reference-loop time, time spent sampling
            print(f"ready {statistics.fmean(meter.seconds)} "
                  f"{sum(meter.costs)}", flush=True)
            return 0
        return _measure(args, config, frozen, tasks, workdir, workloads,
                        tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, config, frozen, tasks, workdir, workloads, tracing):
    runner = Runner(tasks, frozen)
    probe = None
    if args.workload == "series_cli":
        probe = workloads.robustness_probe(workdir)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    start = perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        plain, _ = run_passes(runner, start + args.seconds / 2)
        traced, layer_values = run_passes(runner, start + args.seconds,
                                          tracer)
        if args.workload == "oracle_crosscheck":
            cases = [(alg, d) for _, alg, top in workloads.grid_specs()
                     for d in range(1, top + 1)]
            runner.attempted += len(cases)
            for spec_hash, d in tracing.leaf_count_mismatches(cases):
                runner.failed += 1
                runner.messages.append(
                    f"oracle leaf cap disagrees with the monomial count "
                    f"for spec {spec_hash} in degree {d}")
    else:
        plain, _ = run_passes(runner, start + args.seconds)
    wall_s = statistics.median(p.wall_s for p in plain)
    max_task_s = statistics.median(p.max_task_s for p in plain)
    group_s = {g: statistics.median(p.groups.get(g, 0.0) for p in plain)
               for g in workloads.GROUPS[args.workload]}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        * 1024 / 1e6
    probe_failed = probe is not None and probe not in ("exit 0", "exit 3")

    print(f"workload {args.workload}, seed {args.seed}, {len(tasks)} tasks "
          f"per pass, {len(plain)} untraced passes; times in reference "
          f"seconds unless marked raw")
    print(f"wall_s       {_percentile_line([p.wall_s for p in plain])}; raw "
          f"median {statistics.median(p.raw_wall_s for p in plain):.4f} s")
    print(f"max_task_s   median {max_task_s:.4f} s")
    if setup_s is not None:
        print(f"setup_s      {setup_s:.4f} s "
              f"(median of {SETUP_REPEATS} fresh processes)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"error_rate   {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    for g, seconds in group_s.items():
        print(f"group {g:<18} {seconds:.4f} s")
    print("passes       " + " ".join(f"{p.wall_s:.3f}" for p in plain)
          + " (raw " + " ".join(f"{p.raw_wall_s:.3f}" for p in plain) + ")")
    if probe is not None:
        print(f"robustness probe `liecoh {' '.join(workloads.PROBE_ARGV)}`: "
              f"{probe} ({'FAILED' if probe_failed else 'ok'}; "
              f"expected exit 0 or 3)")
    for message in runner.messages:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        values = {}
        for name in layer_values[0]:
            per_pass = [v[name] for v in layer_values]
            exact = all(isinstance(x, int) for x in per_pass)
            values[name] = (statistics.median_low if exact
                            else statistics.median)(per_pass)
        for g in (g for gs in workloads.GROUPS.values() for g in gs):
            values[f"group.{g}.s"] = group_s.get(g, 0.0)
        values["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - wall_s)
        values["cli.probe_failures"] = int(probe_failed)
        trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "span_fields": ["id", "parent", "name", "start", "end"],
            "spans": tracer.spans, "metrics": values}))
        print(f"{len(traced)} traced passes; spans written to "
              f"{trace_path.relative_to(ROOT)}")
        entries = config["per_layer"]
    else:
        values = {"wall_s": wall_s, "max_task_s": max_task_s,
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        entries = config["end_to_end"]
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in entries}
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
