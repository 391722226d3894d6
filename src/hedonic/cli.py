"""Command-line front end: simulate, identify, transport, conjugate, check.

Every run is driven by a JSON config file plus a root seed; exact-solver
commands are byte-deterministic given (config, seed).  Each config
mapping is read once, by `measures.read_config`, which converts each value
to its key's type or refuses it, as it does a key it does not take, naming
the key; no command converts a config value itself.  Each report echoes its
command section as resolved and converted, so runs are self-describing.

Exit codes: 0 ok, 1 usage/config error, 2 verification failure,
3 quality-grid boundary abort, 4 twist-check refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Annotated

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


def _out_path(out_dir: str, rel: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, rel)


def _zeta_x(x, family: SurplusFamily) -> np.ndarray:
    return np.zeros(family.d_x) if x is None else np.asarray(x, dtype=float).ravel()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _read_simulate(raw, where: str, seed: int) -> tuple:
    """A simulate section as resolved, and the keyword arguments of
    simulate_market and certify_dataset for its market under the seed."""
    count, res = Annotated[int, 1], Annotated[int, 2]
    section = measures.read_config(
        raw, where, structural=dict, x_spec=dict, eps_spec=dict, producer_spec=dict,
        n_consumers=count, n_producers=count, boundary_threshold=0.01,
        z_grid={"lo": list[float], "hi": list[float], "resolution": res | list[res]},
        outputs={"dataset": "dataset.csv", "report": "simulate_report.json"},
    )
    return section, {
        "spec": StructuralSpec.from_config(section["structural"], f"{where}.structural"),
        **{
            key: measures.DistributionSpec.from_config(section[key], f"{where}.{key}")
            for key in ("x_spec", "eps_spec", "producer_spec")
        },
        "n_consumers": section["n_consumers"],
        "n_producers": section["n_producers"],
        "z_grid": eq.build_z_grid(**section["z_grid"]),
        "seed": seed,
        "boundary_threshold": section["boundary_threshold"],
    }


def cmd_simulate(raw, seed: int, out_dir: str) -> int:
    section, market = _read_simulate(raw, "simulate", seed)
    outcome = eq.simulate_market(**market)
    report = eq.verify_equilibrium(outcome)
    measures.write_dataset_csv(
        outcome.dataset, _out_path(out_dir, section["outputs"]["dataset"])
    )
    extra = {
        "config": dict(section, seed=seed),
        "n_pairs": outcome.n_pairs,
        "objective": outcome.matching.objective,
        "atomlessness": eq.atomlessness_diagnostic(outcome),
        "maxplus": outcome.maxplus,
    }
    eq.write_equilibrium_report(
        report, extra, _out_path(out_dir, section["outputs"]["report"])
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


def cmd_identify(raw, seed: int, out_dir: str) -> int:
    pipeline = measures.config_kind(
        raw, "identify", ("scalar", "brenier", "general", "simeq"), "pipeline"
    )
    # brenier and simeq fix the bilinear surplus, so they take no zeta
    surplus = {"zeta": dict} if pipeline in ("scalar", "general") else {}
    scheme = measures.config_kind(raw.get("partition", {}), "identify.partition",
                                  ("exact", "bins"), "scheme", "exact")
    widths = {"widths": list[float]} if scheme == "bins" else {}  # exact takes no widths
    section = measures.read_config(
        raw, "identify", pipeline=str, dataset=str, eps_spec=dict, **surplus,
        n_ref=Annotated[int, 1] | None, reference_mode="sample",
        partition={"scheme": "exact", **widths}, outputs={"prefix": "identified"},
    )
    eps_spec = measures.DistributionSpec.from_config(section["eps_spec"], "identify.eps_spec")
    zeta = SurplusFamily.from_config(section["zeta"], "identify.zeta") if surplus else None
    n_ref, mode, part = section["n_ref"], section["reference_mode"], section["partition"]
    dataset = measures.read_dataset_csv(section["dataset"])
    prefix = section["outputs"]["prefix"]

    if pipeline == "simeq":
        cells = ident.simultaneous_equations_identify(
            dataset,
            eps_spec,
            dataset.n if n_ref is None else n_ref,
            seed=seed,
            reference_mode=mode,
            **part,
        )
        write_cell, wrote = _write_forward_map_csv, "forward-map cells"
    else:
        slices = measures.partition_by_x(dataset, **part)
        children = np.random.SeedSequence(seed).spawn(len(slices))

        def identify_cell(k, slice_):
            child_seed = int(children[k].generate_state(1)[0])
            # by default each cell's reference has one point per dataset row of
            # the cell, so its transport takes the replicated assignment path
            cell_ref = slice_.n_rows if n_ref is None else n_ref
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


def cmd_transport(raw, seed: int, out_dir: str) -> int:
    mode = measures.config_kind(raw, "transport", ("exact", "entropic"), "mode", "exact")
    # the entropic solve alone takes a regularization and a tolerance
    entropic = {"epsilon": float, "tol": 1e-9} if mode == "entropic" else {}
    section = measures.read_config(
        raw, "transport", source=str, target=str, zeta=dict, **entropic,
        mode="exact", x=list[float] | None,
        outputs={"plan": "plan.csv", "duals": "duals.csv", "report": "transport_report.json"},
    )
    family = SurplusFamily.from_config(section["zeta"], "transport.zeta")
    mu = measures.read_measure_csv(section["source"])
    nu = measures.read_measure_csv(section["target"])
    s = ot.surplus_matrix(mu, nu, family, _zeta_x(section["x"], family))
    if mode == "exact":
        plan, duals = ot.solve_exact(mu, nu, s)
        info = {"mode": "exact", "iterations": None, "converged": True}
    else:
        result = ot.solve_entropic(mu, nu, s, epsilon=section["epsilon"], tol=section["tol"])
        plan, duals = result.plan, result.duals
        info = {
            "mode": "entropic",
            "iterations": result.iterations,
            "converged": result.converged,
            "marginal_error_l1": result.marginal_error_l1,
        }
    gap = abs(plan.objective - duals.objective(mu.weights, nu.weights))
    ot.write_plan_csv(plan, _out_path(out_dir, section["outputs"]["plan"]))
    ot.write_duals_csv(duals, _out_path(out_dir, section["outputs"]["duals"]))
    measures.write_json(
        {
            "config": section,
            "seed": seed,
            "objective": plan.objective,
            "duality_gap": gap,
            **info,
        },
        _out_path(out_dir, section["outputs"]["report"]),
    )
    print(f"transport: objective {plan.objective!r}, duality gap {gap!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------


def cmd_conjugate(raw, seed: int, out_dir: str) -> int:
    section = measures.read_config(
        raw, "conjugate", grid_function=str, zeta=dict, x=list[float] | None,
        eps_grid={"lo": list[float] | None, "hi": list[float] | None,
                  "resolution": (Annotated[int, 2], 50)},
        outputs={"conjugate": "conjugate.csv", "report": "conjugate_report.json"},
    )
    grid_cfg, outputs = section["eps_grid"], section["outputs"]
    if (grid_cfg["lo"] is None) != (grid_cfg["hi"] is None):
        raise ValueError("conjugate.eps_grid takes lo and hi together or neither")
    family = SurplusFamily.from_config(section["zeta"], "conjugate.zeta")
    gf = conj.read_grid_function_csv(section["grid_function"])
    if grid_cfg["lo"] is not None:
        eps_grid = eq.build_z_grid(**grid_cfg)
    else:
        # fall back to the padded box of potential slopes observed on the grid
        grads, valid = ident.local_price_gradients(
            gf.grid.points, gf.values, ident.default_neighbor_count(gf.grid.dim)
        )
        if not np.any(valid):
            raise ValueError("cannot infer a taste grid from the grid function")
        eps_grid = conj.eps_grid_from_gradients(grads[valid], resolution=grid_cfg["resolution"])
    result = conj.zeta_conjugate(gf, family, _zeta_x(section["x"], family), eps_grid)
    conj.write_grid_function_csv(result, _out_path(out_dir, outputs["conjugate"]))
    measures.write_json(
        {
            "config": section,
            "seed": seed,
            "n_eps": result.n,
            "truncation_warnings": int(np.count_nonzero(result.boundary_hit)),
        },
        _out_path(out_dir, outputs["report"]),
    )
    print(f"conjugate: {result.n} taste nodes, "
          f"{int(np.count_nonzero(result.boundary_hit))} boundary argmaxes")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _check_equilibrium(raw, seed: int) -> tuple:
    """Certify the section's dataset against the market of (config, seed),
    or, without a dataset, simulate that market; either outcome goes
    through verify_equilibrium."""
    where = "check.equilibrium"
    section = measures.read_config(raw, where, simulate=dict, dataset=str | None)
    section["simulate"], market = _read_simulate(section["simulate"], f"{where}.simulate", seed)
    if section["dataset"] is not None:
        ds = measures.read_dataset_csv(section["dataset"])
        outcome, facts = eq.certify_dataset(**market, dataset=ds)
        checks = {"method": "certificate", **facts}
        if outcome is None:
            checks["passed"] = False
            return section, checks
    else:
        outcome = eq.simulate_market(**market)
        checks = {"method": "simulate"}
    report = eq.verify_equilibrium(outcome)
    checks["verification"] = report.to_dict()
    checks["atomlessness"] = eq.atomlessness_diagnostic(outcome)
    checks["passed"] = bool(report.passed)
    return section, checks


def _check_plan(raw) -> tuple:
    section = measures.read_config(
        raw, "check.plan", source=str, target=str, plan=str, zeta=dict | None,
        x=list[float] | None, duals=str | None,
    )
    for key in ("x", "duals"):
        if section[key] is not None and section["zeta"] is None:
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
    if section["zeta"] is not None:
        family = SurplusFamily.from_config(section["zeta"], "check.plan.zeta")
        x = _zeta_x(section["x"], family)
        s = ot.surplus_matrix(mu, nu, family, x)
        mono = ot.check_cyclical_monotonicity(plan, s)
        checks["cyclical_monotonicity"] = {
            "applicable": mono.applicable,
            "violations": mono.violations,
            "worst_margin": mono.worst_margin,
        }
        passed = passed and mono.passed
        if section["duals"] is not None:
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
    return section, checks


def _check_twist_section(raw) -> tuple:
    section = measures.read_config(
        raw, "check.twist", zeta=dict, eps_spec=dict, x=list[float] | None,
        n_grid=(Annotated[int, 1], 64),
        z_grid={"lo": list[float], "hi": list[float], "resolution": (Annotated[int, 2], 8)},
    )
    family = SurplusFamily.from_config(section["zeta"], "check.twist.zeta")
    eps_spec = measures.DistributionSpec.from_config(section["eps_spec"], "check.twist.eps_spec")
    eps_grid = measures.reference_lattice(eps_spec, section["n_grid"])
    z_grid = measures.from_samples(eq.build_z_grid(**section["z_grid"]))
    report = check_twist(family, _zeta_x(section["x"], family), eps_grid, z_grid)
    return section, {
        "passed": bool(report.passed),
        "min_singular_value": report.min_singular_value,
        "witness_found": report.witness is not None,
        "inverse_cross_bound": report.inverse_cross_bound,
        "quality_hessian_bound": report.quality_hessian_bound,
        "growth_condition": report.growth_condition,
    }


def cmd_check(raw, seed: int, out_dir: str) -> int:
    # each check reads its own section, and returns it as resolved with its results
    checks = {
        "equilibrium": lambda sub: _check_equilibrium(sub, seed),
        "plan": _check_plan,
        "twist": _check_twist_section,
    }
    section = measures.read_config(raw, "check", outputs={"report": "check_report.json"},
                                   **dict.fromkeys(checks, dict | None))
    ran = [name for name in checks if section[name] is not None]
    if not ran:
        raise ValueError(
            f"check takes one or more of {sorted(checks)} and outputs, got {sorted(raw)}"
        )
    results = {"config": section, "seed": seed}
    for name in ran:
        section[name], results[name] = checks[name](section[name])
    passed = results["passed"] = all(results[name]["passed"] for name in ran)
    measures.write_json(results, _out_path(out_dir, section["outputs"]["report"]))
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
        with open(args.config) as fh:
            raw = json.load(fh)
        sections = {**dict.fromkeys(_COMMANDS, dict | None), args.command: dict}
        config = measures.read_config(raw, "", seed=0, **sections)
        seed = config["seed"]
        if args.seed is not None:  # read as the config's seed is, refused naming the flag
            seed = measures._read_value(args.seed, int, "--seed")
        return _COMMANDS[args.command](config[args.command], seed, args.out)
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
