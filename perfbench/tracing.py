"""In-memory span tracing around the public functions of each hedonic layer.

A traced run replaces every wrapped function by a wrapper that records a
span (layer, name, start, end, parent span, op id) and the boundary counts
taken from its arguments and result.  Each wrapper is installed under the
function's own name in every ``hedonic.*`` module namespace that holds the
original, so ``from .ot import solve_exact`` call sites are traced too;
methods are wrapped on their class.  Spans stay in memory; ``Tracer.dump``
writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested in one thread, so the children of a
span cover disjoint parts of it and the subtraction is exact.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "measures", "surplus", "ot", "conjugate", "identify", "equilibrium")


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _path_arg(args, kwargs):
    return kwargs.get("path", args[-1] if args else None)


def _lp_counts(args, kwargs, res):
    c = kwargs.get("c", args[0] if args else None)
    return {"lp_iterations": int(getattr(res, "nit", 0)), "lp_vars": int(len(c))}


def _assignment_counts(args, kwargs, res):
    cost = kwargs.get("cost_matrix", args[0] if args else None)
    return {"assignment_cells": int(cost.size)}


def _grid_counts(args, kwargs, res):
    return {"grid_cells": int(res.size)}


def _csv_counts(args, kwargs, res):
    return {"csv_bytes": _file_bytes(_path_arg(args, kwargs))}


def _simulate_counts(args, kwargs, res):
    n, m = res.consumer_eps.shape[0], res.producer_y.shape[0]
    grid_rows = len(kwargs["z_grid"] if "z_grid" in kwargs else args[6])
    return {
        "maxplus_cells": n * m * grid_rows,
        "maxplus_pairs": n * m,
        "matched_pairs": int(res.n_pairs),
    }


# (layer, module, attribute path, boundary counter or None).  Every entry is
# a public function or method at a layer boundary, plus the two scipy solver
# entry points that ``hedonic.ot`` calls.
TARGETS = [
    ("measures", "hedonic.measures", "partition_by_x", None),
    ("measures", "hedonic.measures", "from_samples", None),
    ("measures", "hedonic.measures", "reference_lattice", None),
    ("measures", "hedonic.measures", "sample_reference", None),
    ("measures", "hedonic.measures", "read_dataset_csv", _csv_counts),
    ("measures", "hedonic.measures", "write_dataset_csv", _csv_counts),
    ("measures", "hedonic.measures", "read_measure_csv", _csv_counts),
    ("measures", "hedonic.measures", "write_measure_csv", _csv_counts),
    ("surplus", "hedonic.surplus", "check_twist", None),
    ("surplus", "hedonic.surplus", "SurplusFamily.pairwise", _grid_counts),
    ("surplus", "hedonic.surplus", "SurplusFamily.pairwise_consumer_grid", _grid_counts),
    ("surplus", "hedonic.surplus", "ScalarFamily.pairwise_grid", _grid_counts),
    ("surplus", "hedonic.surplus", "SurplusFamily.eval_rows", None),
    ("surplus", "hedonic.surplus", "ScalarFamily.eval_rows", None),
    ("surplus", "hedonic.surplus", "SurplusFamily.grad_z_rows", None),
    ("surplus", "hedonic.surplus", "SurplusFamily.grad_eps_rows", None),
    ("surplus", "hedonic.surplus", "SurplusFamily.grad_z", None),
    ("surplus", "hedonic.surplus", "SurplusFamily.grad_eps", None),
    ("surplus", "hedonic.surplus", "SurplusFamily.cross_hessian", None),
    ("surplus", "hedonic.surplus", "ScalarFamily.grad_z_rows", None),
    ("surplus", "hedonic.surplus", "ScalarFamily.grad_z", None),
    ("ot", "hedonic.ot", "solve_exact", None),
    ("ot", "hedonic.ot", "solve_entropic", None),
    ("ot", "hedonic.ot", "surplus_matrix", None),
    ("ot", "hedonic.ot", "barycentric_projection", None),
    ("ot", "hedonic.ot", "check_cyclical_monotonicity", None),
    ("ot", "hedonic.ot", "linprog", _lp_counts),
    ("ot", "hedonic.ot", "linear_sum_assignment", _assignment_counts),
    ("conjugate", "hedonic.conjugate", "zeta_conjugate", None),
    ("conjugate", "hedonic.conjugate", "double_conjugate", None),
    ("conjugate", "hedonic.conjugate", "is_zeta_convex", None),
    ("conjugate", "hedonic.conjugate", "legendre", None),
    ("identify", "hedonic.identify", "general_identify", None),
    ("identify", "hedonic.identify", "brenier_identify", None),
    ("identify", "hedonic.identify", "scalar_identify", None),
    ("identify", "hedonic.identify", "simultaneous_equations_identify", None),
    ("identify", "hedonic.identify", "local_price_gradients", None),
    ("identify", "hedonic.identify", "write_potential_csv", None),
    ("equilibrium", "hedonic.equilibrium", "simulate_market", _simulate_counts),
    ("equilibrium", "hedonic.equilibrium", "verify_equilibrium", None),
    ("equilibrium", "hedonic.equilibrium", "atomlessness_diagnostic", None),
    ("equilibrium", "hedonic.equilibrium", "build_z_grid", None),
    ("equilibrium", "hedonic.equilibrium", "write_equilibrium_report", None),
]

DERIV_NAMES = {"grad_z_rows", "grad_eps_rows", "grad_z", "grad_eps", "cross_hessian"}
PAIRWISE_NAMES = {"pairwise", "pairwise_consumer_grid", "pairwise_grid"}
IDENTIFY_ROUTES = {"general_identify", "brenier_identify", "scalar_identify"}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (op, span id, parent id, layer, name, start, end, self, error)
        self.archive = []  # spans of earlier passes
        self.counts = defaultdict(int)
        self.op = None
        self._ids = itertools.count()
        self._stack = []  # [span id, child time] of open spans
        self._installed = []  # (namespace, attribute, original)

    def reset(self):
        """Start a new pass: archive the spans, zero the counts."""
        self.archive.extend(self.spans)
        self.spans = []
        self.counts = defaultdict(int)

    def wrap(self, layer, name, fn, counter=None):
        """Wrapper that records one span per call of ``fn``."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(
                    (self.op, sid, parent, layer, name, start, end,
                     end - start - frame[1], error)
                )
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{layer}.{key}"] += value
            return result

        return traced

    def install(self):
        """Wrap every target in each ``hedonic.*`` namespace that holds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "hedonic" or k.startswith("hedonic."))]
        for layer, mod_name, attr_path, counter in TARGETS:
            owner = sys.modules[mod_name]
            *cls_path, attr = attr_path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(layer, attr, original, counter)
            if cls_path:
                namespaces = [owner]
            else:
                namespaces = [m for m in modules if m.__dict__.get(attr) is original]
            for ns in namespaces:
                setattr(ns, attr, wrapper)
                self._installed.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed = []

    def dump(self, path, meta):
        fields = ("op", "id", "parent", "layer", "name", "start", "end", "self_s", "error")
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": fields,
                       "spans": self.archive + self.spans}, fh)
            fh.write("\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and times of the current pass's spans."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        errors = defaultdict(int)
        for _op, _sid, _parent, layer, name, start, end, own, error in self.spans:
            calls[layer, name] += 1
            total[layer, name] += end - start
            self_s[layer, name] += own
            errors[layer] += error

        def by(layer, names, table):
            return sum(v for (lay, n), v in table.items() if lay == layer and n in names)

        def layer_sum(layer, table):
            return sum(v for (lay, _), v in table.items() if lay == layer)

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_sum(layer, self_s)
            m[f"{layer}.errors"] = errors[layer] + self.counts[f"{layer}.errors"]
        m["cli.commands"] = layer_sum("cli", calls)
        for cmd in ("simulate", "identify", "check"):
            m[f"cli.{cmd}_s"] = total["cli", cmd]
        m["measures.calls"] = layer_sum("measures", calls)
        m["measures.csv_bytes"] = self.counts["measures.csv_bytes"]
        m["surplus.twist_calls"] = calls["surplus", "check_twist"]
        m["surplus.twist_s"] = total["surplus", "check_twist"]
        m["surplus.deriv_calls"] = by("surplus", DERIV_NAMES, calls)
        m["surplus.pairwise_calls"] = by("surplus", PAIRWISE_NAMES, calls)
        m["surplus.pairwise_s"] = by("surplus", PAIRWISE_NAMES, total)
        m["surplus.grid_cells"] = self.counts["surplus.grid_cells"]
        m["ot.solve_exact_calls"] = calls["ot", "solve_exact"]
        m["ot.solve_exact_self_s"] = self_s["ot", "solve_exact"]
        m["ot.lp_calls"] = calls["ot", "linprog"]
        m["ot.lp_s"] = total["ot", "linprog"]
        m["ot.lp_iterations"] = self.counts["ot.lp_iterations"]
        m["ot.lp_vars"] = self.counts["ot.lp_vars"]
        m["ot.lp_share"] = (m["ot.lp_calls"] / m["ot.solve_exact_calls"]
                            if m["ot.solve_exact_calls"] else 0.0)
        m["ot.assignment_calls"] = calls["ot", "linear_sum_assignment"]
        m["ot.assignment_s"] = total["ot", "linear_sum_assignment"]
        m["ot.assignment_cells"] = self.counts["ot.assignment_cells"]
        m["conjugate.calls"] = layer_sum("conjugate", calls)
        m["identify.cells"] = by("identify", IDENTIFY_ROUTES, calls)
        m["identify.price_gradients_s"] = total["identify", "local_price_gradients"]
        m["equilibrium.simulate_calls"] = calls["equilibrium", "simulate_market"]
        m["equilibrium.simulate_self_s"] = self_s["equilibrium", "simulate_market"]
        m["equilibrium.verify_s"] = total["equilibrium", "verify_equilibrium"]
        m["equilibrium.maxplus_cells"] = self.counts["equilibrium.maxplus_cells"]
        pairs = self.counts["equilibrium.maxplus_pairs"]
        m["equilibrium.maxplus_useful_ratio"] = (
            self.counts["equilibrium.matched_pairs"] / pairs if pairs else 0.0)
        m["trace.spans"] = len(self.spans)
        return m
