"""The benchmark's own tests: output checks, child rusage, span self time.

    python3 sweepbench/test_sweepbench.py
"""

import json
import os
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

HASH = "54b3eb88ce5b3361"
CSV_HEADER = (
    "protocol,k,runs,incomplete_runs,mean_makespan,stddev,min,p25,median,"
    "p75,p95,max,mean_ratio,latency_p50,latency_p95,latency_p99,"
    "energy_mean,energy_max,spec_hash"
)
DEVNULL = Path(os.devnull)


def csv_row(protocol, k, max_makespan, spec_hash=HASH, incomplete=0):
    return (f"{protocol},{k},10,{incomplete},7347.500000,10.752261,"
            f"7329.000000,7342.000000,7350.000000,7355.250000,7359.650000,"
            f"{max_makespan:.6f},7.347500,0.000000,0.000000,0.000000,"
            f"12.678498,0.000000,{spec_hash}\n")


REF_ROWS = [
    csv_row("One-Fail Adaptive", 100, 697),
    csv_row("One-Fail Adaptive", 1000, 7361),
    csv_row("Exp Back-on/Back-off", 1000, 5425),
]
REFERENCE = CSV_HEADER + "\n" + "".join(REF_ROWS)
BOUNDS = {100: (842.0, 1493.0), 1000: (7539.3, 14929.0)}


def jsonl_row(cell, spec_hash=HASH, incomplete=0):
    return (f'{{"cell":{cell},"spec_hash":"{spec_hash}","protocol":"P",'
            f'"k":200,"runs":10,"incomplete_runs":{incomplete},'
            f'"mean_makespan":2048.500000,"max_makespan":300000.000000}}\n')


class OutputChecks(unittest.TestCase):
    def ref(self, text=REFERENCE, bounds=None):
        ref = checks.Reference(text, "csv", HASH, len(REF_ROWS))
        if bounds is not None:
            ref.check_paper_bounds(bounds)
        return ref

    def test_identical_output_has_no_failed_cell(self):
        self.assertEqual(self.ref(bounds=BOUNDS).failed_cells(REFERENCE, 0),
                         0)

    def test_truncated_row_fails_its_cell(self):
        self.assertEqual(self.ref().failed_cells(REFERENCE[:-5], 0), 1)

    def test_changed_digit_fails_its_cell(self):
        changed = REFERENCE.replace("5425.000000", "5426.000000")
        self.assertEqual(self.ref().failed_cells(changed, 0), 1)

    def test_missing_row_fails_its_cell(self):
        missing = CSV_HEADER + "\n" + REF_ROWS[0] + REF_ROWS[2]
        self.assertEqual(self.ref().failed_cells(missing, 0), 2)
        self.assertEqual(
            self.ref().failed_cells(REFERENCE[:-len(REF_ROWS[2])], 0), 1)

    def test_wrong_spec_hash_fails_the_cell(self):
        wrong = REFERENCE.replace(HASH + "\n", "0000000000000000\n", 1)
        self.assertEqual(self.ref().failed_cells(wrong, 0), 1)
        # A reference row stamped with another hash than --list-cells
        # reports fails its cell even when the program's row matches it.
        self.assertEqual(self.ref(wrong).failed_cells(wrong, 0), 1)
        other = checks.Reference(REFERENCE, "csv", "ffffffffffffffff", 3)
        self.assertEqual(other.failed_cells(REFERENCE, 0), 3)

    def test_exit_status_2_fails_every_cell(self):
        self.assertEqual(self.ref().failed_cells(REFERENCE, 2), 3)
        self.assertEqual(self.ref().failed_cells(REFERENCE, -9), 3)

    def test_exit_status_must_match_capped_runs(self):
        self.assertEqual(self.ref().failed_cells(REFERENCE, 1), 3)
        capped = REFERENCE.replace(",10,0,", ",10,1,", 1)
        self.assertEqual(self.ref(capped).failed_cells(capped, 1), 0)
        self.assertEqual(self.ref(capped).failed_cells(capped, 0), 3)

    def test_changed_header_fails_every_cell(self):
        renamed = REFERENCE.replace("mean_ratio", "ratio", 1)
        self.assertEqual(self.ref().failed_cells(renamed, 0), 3)

    def test_extra_rows_fail_every_cell(self):
        self.assertEqual(self.ref().failed_cells(REFERENCE + REF_ROWS[0], 0),
                         3)

    def test_paper_bound_breach_fails_the_cell(self):
        over = REFERENCE.replace("7361.000000", "7540.000000")
        self.assertEqual(self.ref(over, BOUNDS).failed_cells(over, 0), 1)
        # One-Fail Adaptive is only held to Theorem 1 from k = 10^3.
        small = REFERENCE.replace("697.000000", "900.000000")
        self.assertEqual(self.ref(small, BOUNDS).failed_cells(small, 0), 0)

    def test_jsonl_rows(self):
        reference = jsonl_row(0) + jsonl_row(1, incomplete=10)
        ref = checks.Reference(reference, "jsonl", HASH, 2)
        self.assertEqual(ref.failed_cells(reference, 1), 0)
        self.assertEqual(ref.failed_cells(reference[:-2] + "\n", 1), 1)
        self.assertEqual(ref.failed_cells(jsonl_row(0), 1), 1)
        self.assertEqual(ref.simulated_slots(), 2 * 10 * 2048.5)
        self.assertEqual(ref.simulated_slots(skip={1}), 10 * 2048.5)


class ChildUsage(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()  # sweepbench_spawn

    def test_peak_rss_is_the_childs_own(self):
        big = run.spawn([sys.executable, "-c",
                         "b = bytearray(200 << 20)\nfor i in range(0, len(b),"
                         " 4096): b[i] = 1"], DEVNULL)
        small = run.spawn([sys.executable, "-c", "pass"], DEVNULL)
        self.assertGreater(big.peak_rss_mb, 190)
        self.assertLess(small.peak_rss_mb, 100)
        self.assertEqual((big.exit_code, small.exit_code), (0, 0))

    def test_peak_rss_excludes_the_parents(self):
        ballast = bytearray(300 << 20)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        small = run.spawn([sys.executable, "-c", "pass"], DEVNULL)
        self.assertLess(small.peak_rss_mb, 100)
        del ballast

    def test_exit_code(self):
        child = run.spawn([sys.executable, "-c", "raise SystemExit(2)"],
                          DEVNULL)
        self.assertEqual(child.exit_code, 2)
        killed = run.spawn([sys.executable, "-c",
                            "import os, signal\n"
                            "os.kill(os.getpid(), signal.SIGKILL)"], DEVNULL)
        self.assertEqual(killed.exit_code, 128 + 9)


def span(sid, parent, name, start, end, cell=-1):
    return layers.Span(sid, parent, cell, name, start, end)


class SelfTime(unittest.TestCase):
    SPANS = [
        span(1, 0, "root", 0, 100),
        span(2, 1, "a", 10, 30),
        span(3, 1, "b", 20, 50),  # overlaps a: 20..30 counted once
        span(4, 1, "a", 90, 120),  # clipped to the parent's end
        span(5, 3, "leaf", 25, 45),  # grandchild: not the root's child
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        self.assertEqual(layers.self_times(self.SPANS),
                         {1: 50, 2: 20, 3: 10, 4: 30, 5: 20})

    def test_self_time_by_name_sums_spans(self):
        by_name = layers.self_seconds_by_name(self.SPANS)
        self.assertAlmostEqual(by_name["a"], 50e-9)
        self.assertAlmostEqual(by_name["root"], 50e-9)

    def test_layer_metrics_list_absent_layers(self):
        spans = [
            span(1, 0, "exp.pipeline", 0, 4_000),
            span(2, 1, "exp.compile", 0, 1_000),
            span(3, 1, "exp.run", 1_000, 4_000),
            span(4, 3, "exp.sink.emit", 3_000, 3_500, cell=0),
            span(5, 0, "serial.pass", 5_000, 9_000),
            span(6, 5, "sim.engine.node", 5_000, 8_000, cell=0),
            span(7, 5, "sim.runner.aggregate", 8_000, 8_400, cell=0),
        ]
        counters = {
            "cells": 1, "threads": 4, "compile_s": 1e-6,
            "pipeline_wall_s": 3e-6, "pipeline_cpu_s": 6e-6,
            "serial_wall_s": 4e-6, "sink_bytes": 10, "cache": None,
            "engines": {"node": {"runs": 2, "completed": 1, "slots": 300,
                                 "station_slots": 1500}},
        }
        metrics, absent = layers.layer_metrics(spans, counters, 3e-6)
        self.assertAlmostEqual(metrics["exp.sink.emit_s"][0], 500e-9)
        self.assertEqual(metrics["sim.engine.node.ns_per_slot"][0], 10.0)
        self.assertEqual(metrics["sim.engine.node.ns_per_station_slot"][0],
                         2.0)
        self.assertEqual(metrics["sim.engine.node.completed_frac"][0], 0.5)
        self.assertAlmostEqual(metrics["sim.sweep.busy_frac"][0], 0.5)
        self.assertAlmostEqual(metrics["sim.sweep.idle_s"][0], 6e-6)
        self.assertAlmostEqual(metrics["trace.overhead_s"][0], 1e-6)
        self.assertIn("svc.cache.hit_frac", absent)
        self.assertIn("sim.engine.fair_batched.busy_s", absent)
        self.assertNotIn("sim.engine.node.busy_s", absent)


class BenchmarkFile(unittest.TestCase):
    def test_declared_metrics_are_the_reported_ones(self):
        bench = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
            .read_text())
        counters = {"cells": 0, "threads": 4, "compile_s": 0.0,
                    "pipeline_wall_s": 1.0, "pipeline_cpu_s": 0.0,
                    "serial_wall_s": 0.0, "sink_bytes": 0, "cache": None,
                    "engines": {}}
        metrics, _ = layers.layer_metrics(
            [span(1, 0, "exp.pipeline", 0, 1)], counters, 0.0)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            {name: unit for name, (_, unit) in metrics.items()})
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)


if __name__ == "__main__":
    unittest.main()
