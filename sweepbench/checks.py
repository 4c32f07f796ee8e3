"""Output checks: every cell of a timed run either matches or fails.

A cell fails when its row is missing, truncated or malformed, carries the
wrong spec_hash, differs from the workload's reference row, or (on
static-batched) breaks the paper's bound. An exit status other than 0 or
1 fails every cell, and so does a status that disagrees with the rows
(ucr_cli exits 1 exactly when some run hit the slot cap).
"""

import csv
import json

# CSV column name -> JSONL key, for the fields the checks read.
_JSONL_KEYS = {"max": "max_makespan"}


def split_rows(text, fmt):
    """(header, rows) of a sink's output; rows keep their newline, so a
    truncated last row is visible as one without it."""
    lines = text.splitlines(keepends=True)
    if fmt == "csv":
        if not lines:
            return None, []
        return lines[0], lines[1:]
    return None, lines


def parse_row(row, fmt, header=None):
    """The row as a dict keyed by CSV column names (taken from `header` for
    CSV), or None when it is truncated or malformed."""
    if not row.endswith("\n"):
        return None
    if fmt == "csv":
        names = next(csv.reader([header or ""]), [])
        fields = next(csv.reader([row.rstrip("\n")]), [])
        if len(fields) != len(names):
            return None
        parsed = dict(zip(names, fields))
    else:
        try:
            parsed = json.loads(row)
        except ValueError:
            return None
        if not isinstance(parsed, dict):
            return None
        for name, key in _JSONL_KEYS.items():
            if key in parsed:
                parsed[name] = parsed[key]
    try:
        for key in ("k", "runs", "incomplete_runs"):
            parsed[key] = int(parsed[key])
        for key in ("mean_makespan", "max"):
            parsed[key] = float(parsed[key])
    except (KeyError, TypeError, ValueError):
        return None
    if not all(isinstance(parsed.get(key), str)
               for key in ("protocol", "spec_hash")):
        return None
    return parsed


def paper_bound_ok(row, bounds):
    """Theorem 1 (One-Fail Adaptive, k >= 10^3) and Theorem 2 (Exp
    Back-on/Back-off): the row's worst run stays under the bound.
    `bounds` maps k -> (one_fail_bound, exp_backon_bound)."""
    k = row["k"]
    if row["protocol"] == "One-Fail Adaptive" and k >= 1000:
        return row["max"] < bounds[k][0]
    if row["protocol"] == "Exp Back-on/Back-off":
        return row["max"] < bounds[k][1]
    return True


class Reference:
    """The workload's reference rows, checked once: a timed run's cell is
    right only when its row equals the reference row and that row itself
    is well-formed, carries `spec_hash` and (after check_paper_bounds)
    meets the paper's bounds."""

    def __init__(self, text, fmt, spec_hash, cells):
        self.fmt = fmt
        self.header, self.rows = split_rows(text, fmt)
        self.cells = cells
        self.parsed = [parse_row(r, fmt, self.header) for r in self.rows]
        self.usable = len(self.rows) == cells
        self.bad = {i for i, p in enumerate(self.parsed)
                    if p is None or p["spec_hash"] != spec_hash}
        capped = any(p is not None and p["incomplete_runs"]
                     for p in self.parsed)
        self.exit_code = 1 if capped else 0

    def ks(self):
        return sorted({p["k"] for p in self.parsed if p is not None})

    def check_paper_bounds(self, bounds):
        """`bounds` maps k -> (one_fail_bound, exp_backon_bound)."""
        self.bad |= {i for i, p in enumerate(self.parsed)
                     if p is not None and not paper_bound_ok(p, bounds)}

    def failed_cells(self, output, exit_code):
        """Number of the grid cells this run's output got wrong."""
        if exit_code != self.exit_code or not self.usable:
            return self.cells
        header, rows = split_rows(output, self.fmt)
        # A wrong header, or rows beyond the grid: nothing can be trusted.
        if header != self.header or len(rows) > self.cells:
            return self.cells
        return sum(1 for i in range(self.cells)
                   if i in self.bad or i >= len(rows)
                   or rows[i] != self.rows[i])

    def simulated_slots(self, skip=frozenset()):
        """Sum over cells (minus those in `skip`) of mean_makespan x runs:
        the makespan slots of every run the sweep simulated."""
        return sum(p["mean_makespan"] * p["runs"]
                   for i, p in enumerate(self.parsed)
                   if i not in skip and p is not None)
