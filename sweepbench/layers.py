"""Per-layer metrics from one traced pass (spans.tsv + counters.json of
trace/sweepbench_trace.cpp).

A span's self time is its duration minus the part of it covered by its
child spans (children clipped to the parent, overlaps counted once).
"""

import json
from collections import defaultdict
from dataclasses import dataclass

ENGINE_KINDS = ("fair_batched", "node", "node_batched")
NODE_KINDS = ("node", "node_batched")


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    cell: int
    name: str
    start_ns: int
    end_ns: int


def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            sid, parent, cell, name, start, end = line.rstrip("\n").split("\t")
            spans.append(Span(int(sid), int(parent), int(cell), name,
                              int(start), int(end)))
    return spans


def self_times(spans):
    """span id -> self time in ns."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children[s.id], key=lambda c: c.start_ns):
            start = max(c.start_ns, cursor)
            end = min(c.end_ns, s.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        result[s.id] = (s.end_ns - s.start_ns) - covered
    return result


def self_seconds_by_name(spans):
    selfs = self_times(spans)
    totals = defaultdict(int)
    for s in spans:
        totals[s.name] += selfs[s.id]
    return {name: ns * 1e-9 for name, ns in totals.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters, wall_s_median):
    """(metrics, absent): metrics maps name -> (value, unit); absent lists
    the metrics whose layer this workload never reaches (reported as 0)."""
    self_s = self_seconds_by_name(spans)
    pipeline = next(s for s in spans if s.name == "exp.pipeline")
    m = {}
    absent = []
    m["exp.compile_s"] = (counters["compile_s"], "s")
    m["exp.cells"] = (counters["cells"], "count")
    m["exp.sink.emit_s"] = (self_s.get("exp.sink.emit", 0.0), "s")
    m["exp.sink.bytes"] = (counters["sink_bytes"], "bytes")

    busy_ns = defaultdict(int)
    for s in spans:
        if s.name.startswith("sim.engine."):
            busy_ns[s.name[len("sim.engine."):]] += s.end_ns - s.start_ns
    for kind in ENGINE_KINDS:
        e = counters["engines"].get(kind)
        prefix = f"sim.engine.{kind}"
        names = [f"{prefix}.busy_s", f"{prefix}.runs", f"{prefix}.ns_per_slot",
                 f"{prefix}.completed_frac"]
        if kind in NODE_KINDS:
            names.append(f"{prefix}.ns_per_station_slot")
        if e is None:
            absent.extend(names)
            e = {"runs": 0, "completed": 0, "slots": 0, "station_slots": 0}
        m[names[0]] = (busy_ns[kind] * 1e-9, "s")
        m[names[1]] = (e["runs"], "count")
        m[names[2]] = (_ratio(busy_ns[kind], e["slots"]), "ns/slot")
        m[names[3]] = (_ratio(e["completed"], e["runs"]), "frac")
        if kind in NODE_KINDS:
            # Station-slots need recorded latencies.
            if e["runs"] and not e["station_slots"]:
                absent.append(names[4])
            m[names[4]] = (_ratio(busy_ns[kind], e["station_slots"]),
                           "ns/station-slot")

    m["sim.runner.aggregate_s"] = (self_s.get("sim.runner.aggregate", 0.0),
                                   "s")
    wall, cpu, threads = (counters["pipeline_wall_s"],
                          counters["pipeline_cpu_s"], counters["threads"])
    m["sim.sweep.busy_frac"] = (_ratio(cpu, threads * wall), "frac")
    m["sim.sweep.idle_s"] = (threads * wall - cpu, "s")
    m["sim.sweep.speedup"] = (_ratio(counters["serial_wall_s"], wall), "x")

    cache = counters["cache"]
    cache_names = ["svc.cache.load_s", "svc.cache.loads", "svc.cache.hit_frac",
                   "svc.cache.store_s", "svc.cache.stores",
                   "svc.cache.bytes_written"]
    if cache is None:
        absent.extend(cache_names)
        cache = {"loads": 0, "hits": 0, "stores": 0, "bytes_written": 0}
    m["svc.cache.load_s"] = (self_s.get("svc.cache.load", 0.0), "s")
    m["svc.cache.loads"] = (cache["loads"], "count")
    m["svc.cache.hit_frac"] = (_ratio(cache["hits"], cache["loads"]), "frac")
    m["svc.cache.store_s"] = (self_s.get("svc.cache.store", 0.0), "s")
    m["svc.cache.stores"] = (cache["stores"], "count")
    m["svc.cache.bytes_written"] = (cache["bytes_written"], "bytes")

    pipeline_s = (pipeline.end_ns - pipeline.start_ns) * 1e-9
    m["trace.overhead_s"] = (pipeline_s - wall_s_median, "s")
    return m, absent


def read_counters(path):
    with open(path) as f:
        return json.load(f)
