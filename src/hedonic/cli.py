"""Command-line front end: simulate, identify, transport, conjugate, check.

Every run is driven by a JSON config file plus a root seed; exact-solver
commands are byte-deterministic given (config, seed).  The resolved
configuration is echoed into each output report so runs are
self-describing.

Exit codes: 0 ok, 1 usage/config error, 2 verification failure,
3 quality-grid boundary abort, 4 twist-check refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import conjugate as conj
from . import equilibrium as eq
from . import identify as ident
from . import measures, ot
from .surplus import StructuralSpec, SurplusFamily, TwistViolationError, check_twist

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_GRID = 3
EXIT_TWIST = 4


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _out_path(out_dir: str, rel: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, rel)


def _zeta_x(section: dict, family: SurplusFamily) -> np.ndarray:
    if "x" in section:
        return np.asarray(section["x"], dtype=float).ravel()
    return np.zeros(family.d_x)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _resolve_simulate(section: dict, seed: int) -> dict:
    resolved = {
        "structural": section["structural"],
        "x_spec": section["x_spec"],
        "eps_spec": section["eps_spec"],
        "producer_spec": section["producer_spec"],
        "n_consumers": int(section["n_consumers"]),
        "n_producers": int(section["n_producers"]),
        "z_grid": section["z_grid"],
        "boundary_threshold": float(section.get("boundary_threshold", 0.01)),
        "seed": seed,
        "outputs": {
            "dataset": section.get("outputs", {}).get("dataset", "dataset.csv"),
            "report": section.get("outputs", {}).get("report", "simulate_report.json"),
        },
    }
    return resolved


def _market(resolved: dict) -> dict:
    """Keyword arguments of simulate_market and certify_dataset for the
    market a resolved simulate section describes."""
    grid_cfg = resolved["z_grid"]
    return {
        "spec": StructuralSpec.from_config(resolved["structural"]),
        "x_spec": measures.DistributionSpec.from_config(resolved["x_spec"]),
        "eps_spec": measures.DistributionSpec.from_config(resolved["eps_spec"]),
        "producer_spec": measures.DistributionSpec.from_config(resolved["producer_spec"]),
        "n_consumers": resolved["n_consumers"],
        "n_producers": resolved["n_producers"],
        "z_grid": eq.build_z_grid(grid_cfg["lo"], grid_cfg["hi"], grid_cfg["resolution"]),
        "seed": resolved["seed"],
        "boundary_threshold": resolved["boundary_threshold"],
    }


def cmd_simulate(config: dict, seed: int, out_dir: str) -> int:
    resolved = _resolve_simulate(config["simulate"], seed)
    outcome = eq.simulate_market(**_market(resolved))
    report = eq.verify_equilibrium(outcome)
    measures.write_dataset_csv(
        outcome.dataset, _out_path(out_dir, resolved["outputs"]["dataset"])
    )
    extra = {
        "config": resolved,
        "n_pairs": outcome.n_pairs,
        "objective": outcome.matching.objective,
        "atomlessness": eq.atomlessness_diagnostic(outcome),
        "maxplus": outcome.maxplus,
    }
    eq.write_equilibrium_report(
        report, extra, _out_path(out_dir, resolved["outputs"]["report"])
    )
    if not report.passed:
        print("simulate: verification FAILED", file=sys.stderr)
        for f in report.failures:
            print(f"  {f}", file=sys.stderr)
        return EXIT_VERIFY
    print(
        f"simulate: {outcome.n_pairs} trades, objective {outcome.matching.objective!r}, "
        "verification passed"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# identify
# ---------------------------------------------------------------------------


def cmd_identify(config: dict, seed: int, out_dir: str) -> int:
    section = config["identify"]
    pipeline = section["pipeline"]
    if pipeline not in ("scalar", "brenier", "general", "simeq"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    dataset = measures.read_dataset_csv(section["dataset"])
    eps_spec = measures.DistributionSpec.from_config(section["eps_spec"])
    part = section.get("partition", {"scheme": "exact"})
    n_ref = section.get("n_ref")
    mode = section.get("reference_mode", "sample")
    prefix = section.get("outputs", {}).get("prefix", "identified")

    if pipeline == "simeq":
        cells = ident.simultaneous_equations_identify(
            dataset,
            eps_spec,
            dataset.n if n_ref is None else int(n_ref),
            seed=seed,
            scheme=part.get("scheme", "exact"),
            widths=part.get("widths"),
            reference_mode=mode,
        )
        write_cell, wrote = _write_forward_map_csv, "forward-map cells"
    else:
        slices = measures.partition_by_x(
            dataset, part.get("scheme", "exact"), part.get("widths")
        )
        children = np.random.SeedSequence(seed).spawn(len(slices))
        zeta = None if pipeline == "brenier" else SurplusFamily.from_config(section["zeta"])

        def identify_cell(k, slice_):
            child_seed = int(children[k].generate_state(1)[0])
            # by default each cell's reference has one point per dataset row of
            # the cell, so its transport takes the replicated assignment path
            cell_ref = slice_.n_rows if n_ref is None else int(n_ref)
            if pipeline == "scalar":
                return ident.scalar_identify(
                    slice_, eps_spec, zeta, cell_ref, seed=child_seed,
                    reference_mode=mode,
                )
            if pipeline == "brenier":
                return ident.brenier_identify(
                    slice_, eps_spec, cell_ref, seed=child_seed, reference_mode=mode,
                )
            return ident.general_identify(
                slice_, eps_spec, zeta, cell_ref, seed=child_seed, reference_mode=mode,
            )

        # a generator, so each cell's CSV is written before the next is solved
        cells = (identify_cell(k, slice_) for k, slice_ in enumerate(slices))
        write_cell, wrote = ident.write_potential_csv, f"cells via {pipeline}"
    diag = []
    for k, cell in enumerate(cells):
        write_cell(cell, _out_path(out_dir, f"{prefix}_cell{k:03d}.csv"))
        diag.append(dict(cell.diagnostics, x_value=cell.x_value.tolist()))
    measures.write_json(
        {"config": section, "seed": seed, "cells": diag},
        _out_path(out_dir, f"{prefix}_diagnostics.json"),
    )
    print(f"identify: wrote {len(diag)} {wrote}")
    return EXIT_OK


def _write_forward_map_csv(est: ident.ForwardMapEstimate, path: str) -> None:
    d = est.eps_points.shape[1]
    header = [f"eps_{k+1}" for k in range(d)] + [f"zhat_{k+1}" for k in range(d)]
    measures.write_float_table(path, header, est.eps_points, est.z_hat)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def cmd_transport(config: dict, seed: int, out_dir: str) -> int:
    section = config["transport"]
    mu = measures.read_measure_csv(section["source"])
    nu = measures.read_measure_csv(section["target"])
    family = SurplusFamily.from_config(section["zeta"])
    x = _zeta_x(section, family)
    s = ot.surplus_matrix(mu, nu, family, x)
    mode = section.get("mode", "exact")
    outputs = section.get("outputs", {})
    if mode == "exact":
        plan, duals = ot.solve_exact(mu, nu, s)
        info = {"mode": "exact", "iterations": None, "converged": True}
    elif mode == "entropic":
        result = ot.solve_entropic(
            mu,
            nu,
            s,
            epsilon=float(section["epsilon"]),
            tol=float(section.get("tol", 1e-9)),
            max_iter=int(section.get("max_iter", 10_000)),
        )
        plan, duals = result.plan, result.duals
        info = {
            "mode": "entropic",
            "iterations": result.iterations,
            "converged": result.converged,
            "marginal_error_l1": result.marginal_error_l1,
        }
    else:
        raise ValueError(f"unknown transport mode {mode!r}")
    gap = abs(plan.objective - duals.objective(mu.weights, nu.weights))
    ot.write_plan_csv(plan, _out_path(out_dir, outputs.get("plan", "plan.csv")))
    ot.write_duals_csv(duals, _out_path(out_dir, outputs.get("duals", "duals.csv")))
    measures.write_json(
        {
            "config": section,
            "seed": seed,
            "objective": plan.objective,
            "duality_gap": gap,
            **info,
        },
        _out_path(out_dir, outputs.get("report", "transport_report.json")),
    )
    print(f"transport: objective {plan.objective!r}, duality gap {gap!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------


def cmd_conjugate(config: dict, seed: int, out_dir: str) -> int:
    section = config["conjugate"]
    gf = conj.read_grid_function_csv(section["grid_function"])
    family = SurplusFamily.from_config(section["zeta"])
    x = _zeta_x(section, family)
    grid_cfg = section.get("eps_grid", {})
    if "lo" in grid_cfg:
        eps_grid = eq.build_z_grid(
            grid_cfg["lo"], grid_cfg["hi"], grid_cfg.get("resolution", 50)
        )
    else:
        # fall back to the padded box of potential slopes observed on the grid
        grads, valid = ident.local_price_gradients(
            gf.grid.points, gf.values, ident.default_neighbor_count(gf.grid.dim)
        )
        if not np.any(valid):
            raise ValueError("cannot infer a taste grid from the grid function")
        eps_grid = conj.eps_grid_from_gradients(
            grads[valid],
            resolution=int(grid_cfg.get("resolution", 50)),
            padding=float(grid_cfg.get("padding", 0.1)),
        )
    result = conj.zeta_conjugate(gf, family, x, eps_grid)
    outputs = section.get("outputs", {})
    conj.write_grid_function_csv(
        result, _out_path(out_dir, outputs.get("conjugate", "conjugate.csv"))
    )
    measures.write_json(
        {
            "config": section,
            "seed": seed,
            "n_eps": result.n,
            "truncation_warnings": int(np.count_nonzero(result.boundary_hit)),
        },
        _out_path(out_dir, outputs.get("report", "conjugate_report.json")),
    )
    print(f"conjugate: {result.n} taste nodes, "
          f"{int(np.count_nonzero(result.boundary_hit))} boundary argmaxes")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _check_equilibrium(section: dict, seed: int) -> dict:
    """Certify the section's dataset against the market of (config, seed),
    or, without a dataset, simulate that market; either outcome goes
    through verify_equilibrium."""
    resolved = _resolve_simulate(section["simulate"], seed)
    if "dataset" in section:
        ds = measures.read_dataset_csv(section["dataset"])
        outcome, facts = eq.certify_dataset(**_market(resolved), dataset=ds)
        checks = {"method": "certificate", **facts}
        if outcome is None:
            checks["passed"] = False
            return checks
    else:
        outcome = eq.simulate_market(**_market(resolved))
        checks = {"method": "simulate"}
    report = eq.verify_equilibrium(outcome)
    checks["verification"] = report.to_dict()
    checks["atomlessness"] = eq.atomlessness_diagnostic(outcome)
    checks["passed"] = bool(report.passed)
    return checks


def _check_plan(section: dict) -> dict:
    for key in ("cycles", "duals"):
        if key in section and "zeta" not in section:
            raise ValueError(f"check.plan.{key} needs a check.plan.zeta surplus")
    mu = measures.read_measure_csv(section["source"])
    nu = measures.read_measure_csv(section["target"])
    plan = ot.read_plan_csv(section["plan"], (mu.n, nu.n))
    row_mass, col_mass = plan.marginals()
    row_err = float(np.abs(row_mass - mu.weights).max())
    col_err = float(np.abs(col_mass - nu.weights).max())
    checks = {
        "marginal_error_rows": row_err,
        "marginal_error_cols": col_err,
        "feasible": row_err <= 1e-9 and col_err <= 1e-9,
    }
    passed = checks["feasible"]
    if "zeta" in section:
        family = SurplusFamily.from_config(section["zeta"])
        x = _zeta_x(section, family)
        s = ot.surplus_matrix(mu, nu, family, x)
        cyc = section.get("cycles", {})
        mono = ot.check_cyclical_monotonicity(
            plan,
            s,
            k=int(cyc.get("k", 2)),
            trials=int(cyc.get("trials", 1000)),
            seed=int(cyc.get("seed", 0)),
        )
        checks["cyclical_monotonicity"] = {
            "applicable": mono.applicable,
            "violations": mono.violations,
            "worst_margin": mono.worst_margin,
        }
        passed = passed and mono.passed
        if "duals" in section:
            duals = ot.read_duals_csv(section["duals"])
            if duals.w_source.size != mu.n or duals.v_target.size != nu.n:
                raise ValueError(
                    f"duals file {section['duals']} has {duals.w_source.size} source "
                    f"and {duals.v_target.size} target values for measures of "
                    f"{mu.n} and {nu.n} points"
                )
            feas = duals.feasibility_margin(s)
            slack = duals.slackness_error(plan, s)
            v_grid = conj.GridFunction(nu, duals.v_target)
            zconv_ok, zconv_dev = conj.is_zeta_convex(v_grid, family, x, mu.points)
            checks["duals"] = {
                "feasibility_margin": feas,
                "slackness_error": slack,
                "zeta_convex": bool(zconv_ok),
                "zeta_convex_deviation": zconv_dev,
            }
            passed = passed and feas >= -1e-9 and slack <= 1e-7 and zconv_ok
    checks["passed"] = bool(passed)
    return checks


def _check_twist_section(section: dict) -> dict:
    family = SurplusFamily.from_config(section["zeta"])
    x = _zeta_x(section, family)
    eps_spec = measures.DistributionSpec.from_config(section["eps_spec"])
    eps_grid = measures.reference_lattice(eps_spec, int(section.get("n_grid", 64)))
    grid_cfg = section["z_grid"]
    z_grid = measures.from_samples(
        eq.build_z_grid(grid_cfg["lo"], grid_cfg["hi"], grid_cfg.get("resolution", 8))
    )
    report = check_twist(family, x, eps_grid, z_grid)
    return {
        "passed": bool(report.passed),
        "min_singular_value": report.min_singular_value,
        "witness_found": report.witness is not None,
        "inverse_cross_bound": report.inverse_cross_bound,
        "quality_hessian_bound": report.quality_hessian_bound,
        "growth_condition": report.growth_condition,
    }


def cmd_check(config: dict, seed: int, out_dir: str) -> int:
    section = config["check"]
    checks = {
        "equilibrium": lambda sub: _check_equilibrium(sub, seed),
        "plan": _check_plan,
        "twist": _check_twist_section,
    }
    ran = [name for name in checks if name in section]
    if not ran or set(section) - set(checks) - {"outputs"}:
        raise ValueError(
            f"check takes one or more of {sorted(checks)} and outputs, got {sorted(section)}"
        )
    results = {"config": section, "seed": seed}
    for name in ran:
        results[name] = checks[name](section[name])
    passed = results["passed"] = all(results[name]["passed"] for name in ran)
    outputs = section.get("outputs", {})
    measures.write_json(
        results, _out_path(out_dir, outputs.get("report", "check_report.json"))
    )
    print(f"check: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "identify": cmd_identify,
    "transport": cmd_transport,
    "conjugate": cmd_conjugate,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = _Parser(prog="hedonic", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
        return _COMMANDS[args.command](config, seed, args.out)
    except TwistViolationError as exc:
        print(f"{args.command}: twist check refused: {exc}", file=sys.stderr)
        return EXIT_TWIST
    except eq.GridBoundaryError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_GRID
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"{args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
