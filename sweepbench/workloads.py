"""The benchmark's workloads: one generated spec file each, from the seed.

Every workload is one closed sweep: one `ucr_cli --spec=<file>
--threads=4` process, whose next run starts only after the previous one
exits. The seed only sets the spec's `seed` key, so the grid (and hence
the amount of work) is fixed while the sample paths change. The spec text
is written out in full here rather than included from specs/, so the
program receives only the generated file and an edit to a shipped spec
cannot silently change a workload.
"""

from dataclasses import dataclass

ALL_PROTOCOLS = [
    "Log-Fails Adaptive (2)",
    "Log-Fails Adaptive (10)",
    "One-Fail Adaptive",
    "Exp Back-on/Back-off",
    "LogLog-Iterated Back-off",
    "Exponential Back-off (r=2)",
    "Known-k genie (1/k)",
    "Dynamic One-Fail Adaptive",
]


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # "csv" or "jsonl", as the spec's format key says
    body: str  # spec lines other than spec_version and seed
    # Check static-batched rows against the paper's Theorem 1/2 bounds.
    paper_bounds: bool = False
    # Share of cells banked in the result cache before each timed run
    # (0 = no cache).
    prefill: float = 0.0

    def spec_text(self, seed: int) -> str:
        return f"spec_version = 1\n{self.body}seed = {seed}\n"


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


WORKLOADS = {
    w.name: w
    for w in [
        # The paper's Table 1 grid (specs/table1.spec): five protocols,
        # k = 10..10^6, 10 runs, batched fair engines, CSV.
        Workload(
            name="static-batched",
            fmt="csv",
            body=_lines(
                "protocols = Log-Fails Adaptive (2), Log-Fails Adaptive (10),"
                " One-Fail Adaptive, Exp Back-on/Back-off,"
                " LogLog-Iterated Back-off",
                "kmax = 1000000",
                "runs = 10",
                "engine = batched",
                "format = csv",
            ),
            paper_bounds=True,
        ),
        # specs/dynamic-arrivals.spec: six protocols at k = 200 under
        # Poisson and burst arrivals on the exact per-node engine, with 20
        # runs per cell instead of 10: which runs hit the cap depends on the
        # seed, and at 10 runs that alone spread the simulated station-slots
        # by 9% over ten seeds (6% at 20).
        Workload(
            name="dynamic-node",
            fmt="jsonl",
            body=_lines(
                "protocols = Log-Fails Adaptive (2), Log-Fails Adaptive (10),"
                " One-Fail Adaptive, Exp Back-on/Back-off,"
                " LogLog-Iterated Back-off, Dynamic One-Fail Adaptive",
                "ks = 200",
                "arrival = poisson(0.02)",
                "arrival = poisson(0.1)",
                "arrival = poisson(0.5)",
                "arrival = burst(4,64)",
                "runs = 20",
                "engine = node",
                "max_slots = 300000",
                "record_latencies = true",
                "format = jsonl",
            ),
        ),
        # The batched per-node engine on dense Poisson traffic at k = 10^6.
        Workload(
            name="dense-batched",
            fmt="jsonl",
            body=_lines(
                "protocols = Exp Back-on/Back-off, LogLog-Iterated Back-off,"
                " Exponential Back-off (r=2)",
                "ks = 1000000",
                "arrival = poisson(0.01)",
                "arrival = poisson(0.05)",
                "runs = 4",
                "engine = node_batched",
                "record_latencies = true",
                "format = jsonl",
            ),
        ),
        # Many cheap cells (8 protocols x 40 k x 75 arrivals = 24000),
        # three quarters already in the result cache. The cell count makes
        # one run last seconds: sub-second runs of this mostly serial
        # workload were too exposed to host noise to be steady.
        Workload(
            name="resume",
            fmt="jsonl",
            body=_lines(
                "protocols = " + ", ".join(ALL_PROTOCOLS),
                "ks = " + ", ".join(str(k) for k in range(2, 42)),
                "arrival = batch",
                *(f"arrival = burst(2,{g})" for g in range(1, 75)),
                "runs = 1",
                "engine = batched",
                "max_slots = 20000",
                "format = jsonl",
            ),
            prefill=0.75,
        ),
    ]
}
