"""Spans around the calls into each module of ``nonavg``, for the traced run.

The package is not edited: ``Tracer.install`` replaces each function named in
``_targets`` by a wrapper, in every module of the package that holds a
reference to it.  A wrapper records one span (name, start, end, parent) and,
for some calls, counts read from the arguments or the result, such as the
node count left in the solver's budget object.  Spans stay in memory in flat
arrays; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import os
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter


def _targets(pkg):
    """(owner, attribute, span name); the layer is the name's first part."""
    closed_form = pkg.closedform.ClosedForm
    return [
        (pkg.greedy, "generate", "greedy.generate"),
        (pkg.greedy, "extend", "greedy.extend"),
        (pkg.greedy, "read_cache", "greedy.read_cache"),
        (pkg.greedy, "write_cache", "greedy.write_cache"),
        # The per-candidate witness search that greedy generation makes.
        (pkg.solver, "_blocking_witness", "solver.witness"),
        (pkg.theorems, "discover_closed_form", "theorems.discover"),
        (pkg.theorems, "check_scale_identity", "theorems.scale_identity"),
        (pkg.theorems, "check_residue_completeness", "theorems.completeness"),
        (closed_form, "count_below", "closedform.count_below"),
        (closed_form, "nth", "closedform.nth"),
        (closed_form, "contains", "closedform.contains"),
        (pkg.closedform, "count_zero_one_below", "closedform.count_below"),
        (pkg.closedform, "zero_one_nth", "closedform.nth"),
        (pkg.closedform, "zero_one_contains", "closedform.contains"),
        (pkg.asymptotics, "zero_one_count_bounds", "asymptotics.count_bounds"),
        (pkg.asymptotics, "closed_form_count_bounds", "asymptotics.count_bounds"),
        (pkg.asymptotics, "term_growth_bounds", "asymptotics.term_bounds"),
        (pkg.cli, "main", "cli.main"),
    ]


def _count_solver(counts, args, result):
    nodes = args[5].nodes  # the budget object passed by greedy._scan
    counts["solver.nodes"] += nodes
    counts["solver.nodes_max"] = max(counts["solver.nodes_max"], nodes)
    counts["solver.witnesses"] += result is not None


def _count_terms(counts, args, result):
    before = len(args[0].terms) if isinstance(args[0], type(result)) else 0
    counts["greedy.terms"] += len(result.terms) - before


def _count_cache(counts, args, result):
    counts["greedy.cache_bytes"] += os.path.getsize(args[0])


def _count_cells(counts, args, result):
    counts["theorems.cells"] += len(result.cells)
    counts["theorems.passes"] += result.overall


def _count_output(counts, args, result):
    # The benchmark captures the CLI's standard output in a StringIO.
    counts["cli.bytes_out"] += len(sys.stdout.getvalue().encode())


AFTER = {
    "solver.witness": _count_solver,
    "greedy.generate": _count_terms,
    "greedy.extend": _count_terms,
    "greedy.read_cache": _count_cache,
    "greedy.write_cache": _count_cache,
    "theorems.completeness": _count_cells,
    "cli.main": _count_output,
}


class Tracer:
    def __init__(self):
        self.on = False
        self.names = []
        self.layer_of = []
        self.name = array("H")
        self.parent = array("l")
        self.nested = array("b")  # inside another span of the same layer
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.depth = Counter()
        self.counts = Counter()
        self.rounds = []  # (first span, last span + 1, counts) per round

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(name.split(".")[0])
        return self.names.index(name)

    def wrap(self, name, fn):
        nid = self._name_id(name)
        layer = self.layer_of[nid]
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.nested.append(self.depth[layer] > 0)
            self.depth[layer] += 1
            self.stack.append(i)
            self.end.append(0.0)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()
                self.depth[layer] -= 1
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def install(self, pkg):
        modules = [m for key, m in sys.modules.items() if key == "nonavg" or key.startswith("nonavg.")]
        for owner, attr, name in _targets(pkg):
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def begin_round(self):
        self.counts = Counter()
        self.rounds.append([len(self.start), None, self.counts])

    def end_round(self):
        self.rounds[-1][1] = len(self.start)

    def round_metrics(self, lo, hi, counts):
        """Per-layer figures of one round: time, self time and calls per span name and layer."""
        child = {}
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p] = child.get(p, 0.0) + self.end[i] - self.start[i]
        busy, self_s, calls = Counter(), Counter(), Counter()
        candidates = prefixes = 0
        scan_ids = {self._name_id("greedy.generate"), self._name_id("greedy.extend")}
        discover_id = self._name_id("theorems.discover")
        for i in range(lo, hi):
            nid = self.name[i]
            name, layer = self.names[nid], self.layer_of[nid]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            busy[name] += duration
            self_s[layer] += duration - child.get(i, 0.0)
            self_s[name] += duration - child.get(i, 0.0)
            if not self.nested[i]:
                busy[layer] += duration
                calls[layer] += 1
            p = self.parent[i]
            if name == "solver.witness" and p >= 0 and self.name[p] in scan_ids:
                candidates += 1
            if name == "theorems.scale_identity" and p >= 0 and self.name[p] == discover_id:
                prefixes += 1

        def ratio(a, b):
            return a / b if b else 0.0

        terms, nodes, cells = counts["greedy.terms"], counts["solver.nodes"], counts["theorems.cells"]
        queries = sum(calls[f"closedform.{m}"] for m in ("count_below", "nth", "contains"))
        metrics = {
            "greedy.busy_s": busy["greedy"],
            "greedy.self_s": self_s["greedy"],
            "greedy.candidates": candidates,
            "greedy.terms": terms,
            "greedy.accept_ratio": ratio(terms, candidates),
            "greedy.candidates_per_s": ratio(candidates, busy["greedy"]),
            "greedy.cache_read_s": busy["greedy.read_cache"],
            "greedy.cache_write_s": busy["greedy.write_cache"],
            "greedy.cache_bytes": counts["greedy.cache_bytes"],
            "solver.calls": calls["solver.witness"],
            "solver.busy_s": busy["solver"],
            "solver.nodes": nodes,
            "solver.nodes_max": counts["solver.nodes_max"],
            "solver.nodes_per_s": ratio(nodes, busy["solver"]),
            "solver.witness_ratio": ratio(counts["solver.witnesses"], calls["solver.witness"]),
            "theorems.discover_s": busy["theorems.discover"],
            "theorems.discover_self_s": self_s["theorems.discover"],
            "theorems.prefixes_tried": prefixes,
            "theorems.completeness_calls": calls["theorems.completeness"],
            "theorems.completeness_s": busy["theorems.completeness"],
            "theorems.cells": cells,
            "theorems.cells_per_s": ratio(cells, busy["theorems.completeness"]),
            "theorems.completeness_pass_ratio":
                ratio(counts["theorems.passes"], calls["theorems.completeness"]),
            "closedform.calls": calls["closedform"],
            "closedform.busy_s": busy["closedform"],
            "closedform.queries_per_s": ratio(queries, busy["closedform"]),
            "asymptotics.calls": calls["asymptotics"],
            "asymptotics.busy_s": busy["asymptotics"],
            "cli.calls": calls["cli"],
            "cli.busy_s": busy["cli"],
            "cli.self_s": self_s["cli"],
            "cli.bytes_out": counts["cli.bytes_out"],
            "traced.spans": hi - lo,
        }
        for method in ("count_below", "nth", "contains"):
            metrics[f"closedform.{method}.calls"] = calls[f"closedform.{method}"]
            metrics[f"closedform.{method}_s"] = busy[f"closedform.{method}"]
        return metrics

    def metrics(self):
        """The median over rounds of each per-round figure."""
        per_round = [self.round_metrics(lo, hi, counts) for lo, hi, counts in self.rounds]
        return {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}

    def write(self, path):
        """Save the first round's spans as CSV: id, name, parent id, start and end
        in seconds.  Later rounds repeat the same operations."""
        lo, hi, _ = self.rounds[0]
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for i in range(lo, hi):
                name = self.names[self.name[i]]
                fh.write(f"{i},{name},{self.parent[i]},{self.start[i]!r},{self.end[i]!r}\n")
