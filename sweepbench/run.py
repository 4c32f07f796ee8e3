#!/usr/bin/env python3
"""Sweep benchmark: times whole `ucr_cli --spec=<generated> --threads=4`
sweeps and checks every row they write.

    python3 sweepbench/run.py --workload static-batched --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. The first run builds ucr_cli and the
benchmark's tools into .bench_build/ (Release). The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
traced in-process pass. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "sweepbench-cmake"
CLI = BUILD / "ucr" / "tools" / "ucr_cli"
TRACE = BUILD / "sweepbench_trace"
SPAWN = BUILD / "sweepbench_spawn"
THREADS = 4
END_TO_END_UNITS = {"wall_s": "s", "sim_slots_per_s": "slots/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPS_PER_RUN = 3
SETUP_REPS_MIN = 21


def build():
    """Configures once, then (re)builds ucr_cli and the benchmark's tools."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("sweepbench: no repository sources next to "
                         f"{HERE.name}/ (expected CMakeLists.txt and src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "ucr_cli",
                    "sweepbench_trace", "sweepbench_spawn", f"-j{THREADS}"],
                   check=True, stdout=sys.stderr)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def spawn(argv, stdout_path):
    """Runs argv to completion through sweepbench_spawn, which forks it from
    a small process and reports its wall time and its own wait4() rusage.
    (Forked straight from Python, the child's ru_maxrss would include
    Python's own peak; RUSAGE_CHILDREN would keep a running max over every
    child, hiding a drop.)"""
    done = subprocess.run([str(SPAWN), str(stdout_path), *map(str, argv)],
                          capture_output=True, text=True, check=True)
    code, wall, user, system, rss_kib = done.stdout.split()
    return Child(float(wall), float(user) + float(system),
                 int(rss_kib) / 1024.0, int(code))


def run_checked(argv, what):
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"sweepbench: {what} failed ({done.returncode}):\n"
                         f"{done.stderr}")
    return done.stdout


def list_cells(spec):
    """(spec_hash, cell count) from --list-cells."""
    lines = run_checked([str(CLI), f"--spec={spec}", "--list-cells"],
                        "--list-cells").splitlines()
    spec_hash = lines[0].split("=", 1)[1].strip()
    cells = int(lines[1].split()[0])
    return spec_hash, cells


def cache_records(cache):
    """Paths of the cell records (and any temp files) under a cache root."""
    return {entry.path for sub in os.scandir(cache) if sub.is_dir()
            for entry in os.scandir(sub.path)}


def prefill_cache(spec, cells, fraction, cache):
    """The program's own cold cached run, killed after `fraction` of the
    cells: a killed sweep about to be resumed. Returns the banked records
    and their cell indices."""
    abort_after = int(cells * fraction)
    child = spawn([CLI, f"--spec={spec}", f"--threads={THREADS}",
                   f"--cache={cache}", f"--abort-after-cells={abort_after}"],
                  cache.parent / "prefill.out")
    if child.exit_code != 2:
        raise SystemExit(f"sweepbench: prefill run exited {child.exit_code}")
    records = cache_records(cache)
    cells = frozenset(int(Path(p).stem.split("-")[1]) for p in records)
    return records, cells


def reset_cache(cache, prefilled):
    """Puts the cache back to its prefilled state. Runs only read the
    prefilled records, so removing the ones a run added is enough."""
    if cache is None:
        return
    for path in cache_records(cache) - prefilled:
        os.unlink(path)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    build()
    work = ROOT / ".bench_build" / f"sweepbench-run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def measure(workload, args, work):
    spec = work / "workload.spec"
    spec.write_text(workload.spec_text(args.seed))
    spec_hash, cells = list_cells(spec)

    cache, prefilled, replayed = None, None, frozenset()
    argv = [CLI, f"--spec={spec}", f"--threads={THREADS}"]
    if workload.prefill:
        cache = work / "cache"
        prefilled, replayed = prefill_cache(spec, cells, workload.prefill,
                                            cache)
        argv.append(f"--cache={cache}")

    # setup_s: spec load, include resolution, compile(), cell enumeration.
    # Sampled between the timed runs, so a slow spell of the host shows in
    # both metrics alike.
    def setup_s():
        return spawn([CLI, f"--spec={spec}", "--list-cells"],
                     work / "list.out").wall_s

    timed, setups, outputs = [], [], []
    while sum(c.wall_s for c in timed) < args.seconds:
        setups += [setup_s() for _ in range(SETUP_REPS_PER_RUN)]
        outputs.append(work / f"timed-{len(timed)}.out")
        timed.append(spawn(argv, outputs[-1]))
        reset_cache(cache, prefilled)
    while len(setups) < SETUP_REPS_MIN:
        setups.append(setup_s())

    # The reference rows: the traced pass's single-threaded serial part
    # (run after the timed runs, so it meets the cache and filesystem in
    # the state they left), or else the same pool-free path spread over
    # THREADS plain threads.
    if args.trace:
        trace_dir = traced_pass(spec, cache, work)
        reference = (trace_dir / "reference.out").read_text()
    else:
        ref_path = work / "reference.out"
        run_checked([str(TRACE), "reference", f"--spec={spec}",
                     f"--threads={THREADS}", f"--out={ref_path}"], "reference")
        reference = ref_path.read_text()
    ref = checks.Reference(reference, workload.fmt, spec_hash, cells)
    if workload.paper_bounds:
        ref.check_paper_bounds(paper_bounds(ref.ks()))
    checked = [(path, child.exit_code) for path, child in zip(outputs, timed)]
    if args.trace:
        checked.append((trace_dir / "pipeline.out", ref.exit_code))
    attempted = cells * len(checked)
    failed = sum(ref.failed_cells(path.read_text(), exit_code)
                 for path, exit_code in checked)

    walls = [c.wall_s for c in timed]
    slots = ref.simulated_slots(replayed)
    samples = {
        "wall_s": walls,
        "sim_slots_per_s": [slots / w for w in walls],
        "cpu_s": [c.cpu_s for c in timed],
        "peak_rss_mb": [c.peak_rss_mb for c in timed],
        "setup_s": setups,
    }
    print(f"workload={workload.name} seed={args.seed} spec_hash={spec_hash} "
          f"cells={cells} timed_runs={len(timed)} "
          f"cells_failed={failed} of {attempted}")
    metrics = {}
    for name, values in samples.items():
        unit = END_TO_END_UNITS[name]
        q1, q3 = quartiles(values)
        median = statistics.median(values)
        print(f"  {name} = {median:.6g} {unit} "
              f"(median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
        metrics[name] = (median, unit)

    if args.trace:
        metrics, absent = layers.layer_metrics(
            layers.read_spans(trace_dir / "spans.tsv"),
            layers.read_counters(trace_dir / "counters.json"),
            statistics.median(walls))
        print(f"traced pass ({workload.name}, spec_hash={spec_hash}):")
        for name, (value, unit) in metrics.items():
            note = "  [absent by design]" if name in absent else ""
            print(f"  {name} = {value:.6g} {unit}{note}")

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def paper_bounds(ks):
    """k -> (one_fail_bound, exp_backon_bound) from analysis/bounds.hpp."""
    text = run_checked([str(TRACE), "bounds",
                        "--ks=" + ",".join(map(str, ks))], "bounds")
    return {int(k): (float(a), float(b))
            for k, a, b in (line.split() for line in text.splitlines())}


def traced_pass(spec, cache, work):
    """Runs the traced pipeline + serial pass; returns its output dir."""
    out_dir = work / "trace"
    out_dir.mkdir()
    argv = [str(TRACE), "trace", f"--spec={spec}", f"--threads={THREADS}",
            f"--out-dir={out_dir}"]
    if cache is not None:
        argv.append(f"--cache={cache}")
    run_checked(argv, "traced pass")
    return out_dir


if __name__ == "__main__":
    main()
