"""Benchmark workloads: seeded CLI configs, their command lists and output checks.

A workload pass is a list of ``Op``s, each one ``hedonic`` CLI command run
against a config file the benchmark wrote.  Every op carries the check of
its outputs; a failed check counts the op as failed.

Why each workload exists, which layers it is expected to load, and why the
round trip stops at n = 300 is set out in README.md.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

CENTER = [4.0, 4.0]
UNIT_BOX_2D = {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
COST_2D = {
    "kind": "polynomial", "d_a": 2, "d_z": 2,
    "terms": [{"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
              {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
              {"coeff": -1.0, "a": [0, 1], "z": [0, 1]}],
}
U_BAR_2D = {"kind": "neg-quadratic", "d_a": 1, "q": [[1.0, 0.0], [0.0, 1.0]],
            "center_matrix": [[0.0], [0.0]], "center_offset": CENTER}
BILINEAR_2D = {"kind": "bilinear", "dim": 2, "d_x": 1}
POLY_ZETA = {
    "kind": "polynomial", "d_x": 1, "d_z": 2,
    "terms": [{"coeff": 1.0, "x": [1], "eps": [1, 0], "z": [1, 0]},
              {"coeff": 1.0, "eps": [0, 1], "z": [0, 1]},
              {"coeff": 0.2, "eps": [1, 0], "z": [0, 1]}],
}
# Largest roundtrip-bilinear size must recover grad Ubar within criterion 7's bound.
RECOVERY_BOUND = 0.05

# Per workload: full sizes, and the tiny sizes of the smoke mode.
SIZES = {
    "roundtrip-bilinear": {
        "full": {"ladder": [(100, 30), (200, 42), (300, 52)],
                 "recovery_bound": RECOVERY_BOUND},
        "smoke": {"ladder": [(25, 12), (36, 14)], "recovery_bound": None},
    },
    "equilibrium-matrix": {
        "full": {"n": 400, "res": {1: 900, 2: 45}},
        "smoke": {"n": 30, "res": {1: 120, 2: 15}},
    },
    "identify-poly-cells": {
        "full": {"n": 400, "res": 45, "twist_grid": 64, "twist_res": 8},
        "smoke": {"n": 64, "res": 20, "twist_grid": 16, "twist_res": 4},
    },
}
WORKLOADS = tuple(SIZES)


@dataclass
class Op:
    """One CLI command of a pass and the check of what it wrote."""

    command: str
    config: str
    out: str
    check: Callable[[dict], None]


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(c) for c in row] for row in reader if row])
    return header, rows


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cell_ids(x, widths):
    """Cell index per dataset row: exact x groups, or half-open bins of the
    given width anchored at the data minimum with the maximum folded in."""
    if widths is None:
        keys = x
    else:
        w = float(widths[0])
        lo = x.min(axis=0)
        n_cells = np.maximum(1, np.ceil((x.max(axis=0) - lo) / w - 1e-12).astype(int))
        keys = np.minimum(np.floor((x - lo) / w).astype(int), n_cells - 1)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    return inverse.ravel()


def check_simulate(report_path, dataset_path, n_rows):
    def check(stats):
        report = _read_json(report_path)
        if not report["verification"]["passed"]:
            raise CheckFailed(f"{report_path}: equilibrium verification failed")
        _, rows = _read_rows(dataset_path)
        if rows.shape[0] != n_rows or not np.all(np.isfinite(rows)):
            raise CheckFailed(f"{dataset_path}: expected {n_rows} finite rows")
    return check


def check_identify(dataset_path, out_dir, prefix, widths, recovery_bound=None):
    """One potential row per traded quality of each cell, with finite v;
    records the relative RMSE of ubar_grad against the analytic center - z."""
    def check(stats):
        header, data = _read_rows(dataset_path)
        d_x = sum(1 for h in header if h.startswith("x_"))
        x, z = data[:, :d_x], data[:, d_x:-1]
        cells = _cell_ids(x, widths)
        errors = []
        for k in range(cells.max() + 1):
            path = os.path.join(out_dir, f"{prefix}_cell{k:03d}.csv")
            _, pot = _read_rows(path)
            d = z.shape[1]
            traded = np.unique(z[cells == k], axis=0)
            got = pot[np.lexsort(pot[:, :d].T[::-1]), :d]
            if got.shape != traded.shape or not np.array_equal(got, traded):
                raise CheckFailed(f"{path}: rows differ from the cell's traded qualities")
            if not np.all(np.isfinite(pot[:, d])):
                raise CheckFailed(f"{path}: non-finite potential values")
            grad = pot[:, 2 * d + 1:]
            ok = np.all(np.isfinite(grad), axis=1)
            analytic = np.asarray(CENTER)[None, :] - pot[:, :d]
            rmse = np.sqrt(np.mean(np.sum((grad[ok] - analytic[ok]) ** 2, axis=1)))
            errors.append(rmse / np.sqrt(np.mean(np.sum(analytic[ok] ** 2, axis=1))))
        rel = float(np.mean(errors))
        stats.setdefault("recovery_rel_rmse", []).append(rel)
        if recovery_bound is not None and not rel <= recovery_bound:
            raise CheckFailed(f"{out_dir}: recovery rel RMSE {rel:.4f} > {recovery_bound}")
    return check


def check_report_passed(report_path):
    def check(stats):
        if not _read_json(report_path)["passed"]:
            raise CheckFailed(f"{report_path}: check report did not pass")
    return check


def _simulate_section(structural, x_spec, prod_spec, n, lo, hi, res):
    return {
        "structural": structural,
        "x_spec": x_spec,
        "eps_spec": {"kind": "uniform", "lo": [0.0] * len(lo), "hi": [1.0] * len(lo)},
        "producer_spec": prod_spec,
        "n_consumers": n, "n_producers": n,
        "z_grid": {"lo": lo, "hi": hi, "resolution": res},
        "outputs": {"dataset": "dataset.csv", "report": "sim_report.json"},
    }


def _market_ops(work, name, seed, sim, identify=None, check=None, recovery_bound=None):
    """simulate, then optionally identify and check, in directory work/name."""
    out = os.path.join(work, name)
    os.makedirs(out, exist_ok=True)
    dataset = os.path.join(out, "dataset.csv")
    cfg = {"seed": seed, "simulate": sim}
    if identify is not None:
        cfg["identify"] = dict(identify, dataset=dataset, outputs={"prefix": "identified"})
    if check is not None:
        cfg["check"] = dict(check, equilibrium={"simulate": sim, "dataset": dataset})
    path = os.path.join(out, "config.json")
    _write_json(path, cfg)
    ops = [Op("simulate", path, out, check_simulate(
        os.path.join(out, "sim_report.json"), dataset, sim["n_consumers"]))]
    if identify is not None:
        widths = identify.get("partition", {}).get("widths")
        ops.append(Op("identify", path, out, check_identify(
            dataset, out, "identified", widths, recovery_bound)))
    if check is not None:
        ops.append(Op("check", path, out, check_report_passed(
            os.path.join(out, "check_report.json"))))
    return ops


def _roundtrip_bilinear(work, seed, sizes):
    ops = []
    ladder = sizes["ladder"]
    for k, (n, res) in enumerate(ladder):
        sim = _simulate_section(
            {"u_bar": U_BAR_2D, "cost": COST_2D, "zeta": BILINEAR_2D},
            {"kind": "point", "value": [1.0]}, UNIT_BOX_2D,
            n, [1.9, 1.9], [3.1, 3.1], res)
        identify = {"pipeline": "general", "eps_spec": UNIT_BOX_2D, "zeta": BILINEAR_2D,
                    "n_ref": n, "reference_mode": "lattice",
                    "partition": {"scheme": "exact"}}
        bound = sizes["recovery_bound"] if k == len(ladder) - 1 else None
        ops += _market_ops(work, f"n{n}", seed + k, sim, identify, {}, bound)
    return ops


def _structural_matrix(d_z):
    """Criterion 6's three structural specs: (name, structural, grid box, producers)."""
    eye = np.eye(d_z)
    cost_a = {"kind": "polynomial", "d_a": d_z, "d_z": d_z,
              "terms": [{"coeff": 0.5, "a": eye[k].astype(int).tolist(),
                         "z": (2 * eye[k]).astype(int).tolist()} for k in range(d_z)]}
    cost_b = {"kind": "polynomial", "d_a": d_z, "d_z": d_z,
              "terms": [{"coeff": 0.5, "z": (2 * eye[k]).astype(int).tolist()}
                        for k in range(d_z)]
              + [{"coeff": -1.0, "a": eye[k].astype(int).tolist(),
                  "z": eye[k].astype(int).tolist()} for k in range(d_z)]}
    bilinear = {"kind": "bilinear", "dim": d_z, "d_x": 1}
    zero = {"kind": "polynomial", "d_a": 1, "d_z": d_z, "terms": [{"coeff": 0.0}]}
    u_bar_b = {"kind": "neg-quadratic", "d_a": 1, "q": eye.tolist(),
               "center_matrix": [[0.0]] * d_z, "center_offset": [4.0] * d_z}
    q_c = (eye + (0.2 * (np.ones((d_z, d_z)) - eye) if d_z > 1 else 0.0)).tolist()
    unit = {"kind": "uniform", "lo": [0.0] * d_z, "hi": [1.0] * d_z}
    return [
        ("tinbergen", {"u_bar": zero, "cost": cost_a, "zeta": bilinear},
         (-0.2, 2.4), {"kind": "uniform", "lo": [0.5] * d_z, "hi": [1.5] * d_z}),
        ("quadratic", {"u_bar": u_bar_b, "cost": cost_b, "zeta": bilinear},
         (1.8, 3.2), unit),
        ("neg-quad-surplus", {"u_bar": zero, "cost": cost_b,
                              "zeta": {"kind": "neg-quadratic", "q": q_c, "d_x": 1}},
         (-0.6, 1.8), unit),
    ]


def _equilibrium_matrix(work, seed, sizes):
    ops = []
    for d_z in (1, 2):
        for k, (name, structural, (lo, hi), prod) in enumerate(_structural_matrix(d_z)):
            sim = _simulate_section(
                structural, {"kind": "point", "value": [1.0]}, prod,
                sizes["n"], [lo] * d_z, [hi] * d_z, sizes["res"][d_z])
            ops += _market_ops(work, f"{name}-{d_z}d", seed + 3 * d_z + k, sim)
    return ops


def _identify_poly_cells(work, seed, sizes):
    sim = _simulate_section(
        {"u_bar": U_BAR_2D, "cost": COST_2D, "zeta": POLY_ZETA},
        {"kind": "uniform", "lo": [0.6], "hi": [1.4]}, UNIT_BOX_2D,
        sizes["n"], [1.8, 1.8], [3.4, 3.4], sizes["res"])
    identify = {"pipeline": "general", "eps_spec": UNIT_BOX_2D, "zeta": POLY_ZETA,
                "n_ref": sizes["n"] // 4, "reference_mode": "lattice",
                "partition": {"scheme": "bins", "widths": [0.2]}}
    twist = {"twist": {"zeta": POLY_ZETA, "x": [1.0], "eps_spec": UNIT_BOX_2D,
                       "n_grid": sizes["twist_grid"],
                       "z_grid": {"lo": [1.8, 1.8], "hi": [3.4, 3.4],
                                  "resolution": sizes["twist_res"]}}}
    return _market_ops(work, "poly", seed, sim, identify, twist)


_BUILDERS = {
    "roundtrip-bilinear": _roundtrip_bilinear,
    "equilibrium-matrix": _equilibrium_matrix,
    "identify-poly-cells": _identify_poly_cells,
}


def build_pass(workload, work, seed, smoke=False):
    """Write the configs of one pass under ``work`` and return its ops."""
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    return _BUILDERS[workload](work, seed, sizes)
