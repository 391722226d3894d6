"""Command-line contract tests: exit codes, files, determinism."""

import json
from unittest import mock

import numpy as np
import pytest

from hedonic.cli import main
from hedonic.measures import from_samples, write_measure_csv

QUADRATIC_2D = {
    "u_bar": {
        "kind": "neg-quadratic", "d_a": 1,
        "q": [[1.0, 0.0], [0.0, 1.0]],
        "center_matrix": [[0.0], [0.0]], "center_offset": [4.0, 4.0],
    },
    "cost": {
        "kind": "polynomial", "d_a": 2, "d_z": 2,
        "terms": [
            {"coeff": 0.5, "z": [2, 0]}, {"coeff": 0.5, "z": [0, 2]},
            {"coeff": -1.0, "a": [1, 0], "z": [1, 0]},
            {"coeff": -1.0, "a": [0, 1], "z": [0, 1]},
        ],
    },
    "zeta": {"kind": "bilinear", "dim": 2, "d_x": 1},
}

UNIT_BOX_2D = {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}


def simulate_section(n=40, resolution=25, z_lo=(1.9, 1.9), z_hi=(3.1, 3.1)):
    return {
        "structural": QUADRATIC_2D,
        "x_spec": {"kind": "point", "value": [1.0]},
        "eps_spec": UNIT_BOX_2D,
        "producer_spec": UNIT_BOX_2D,
        "n_consumers": n, "n_producers": n,
        "z_grid": {"lo": list(z_lo), "hi": list(z_hi), "resolution": resolution},
        "outputs": {"dataset": "dataset.csv", "report": "sim_report.json"},
    }


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_simulate_identify_check_round_trip(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "seed": 42,
            "simulate": simulate_section(),
            "identify": {
                "pipeline": "general",
                "dataset": str(tmp_path / "dataset.csv"),
                "eps_spec": UNIT_BOX_2D,
                "zeta": {"kind": "bilinear", "dim": 2, "d_x": 1},
                "n_ref": 40,
                "reference_mode": "lattice",
                "outputs": {"prefix": "ident"},
            },
            "check": {
                "equilibrium": {
                    "simulate": simulate_section(),
                    "dataset": str(tmp_path / "dataset.csv"),
                },
            },
        },
    )
    out = str(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "dataset.csv").exists()
    report = json.loads((tmp_path / "sim_report.json").read_text())
    assert report["verification"]["passed"]
    assert main(["identify", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "ident_cell000.csv").exists()
    diag = json.loads((tmp_path / "ident_diagnostics.json").read_text())
    assert diag["cells"][0]["duality_gap"] <= 1e-9
    assert main(["check", "--config", cfg, "--out", out]) == 0


def test_exact_commands_are_byte_deterministic(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "seed": 7,
            "simulate": simulate_section(n=25, resolution=21),
            "identify": {
                "pipeline": "brenier",
                "dataset": str(tmp_path / "a" / "dataset.csv"),
                "eps_spec": UNIT_BOX_2D,
                "n_ref": 25,
                "outputs": {"prefix": "ident"},
            },
        },
    )
    for run in ("a", "b"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / run)]) == 0
        assert main(["identify", "--config", cfg, "--out", str(tmp_path / run)]) == 0
    for name in ("dataset.csv", "sim_report.json", "ident_cell000.csv",
                 "ident_diagnostics.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_identify_without_n_ref_sizes_each_cell_reference_by_its_rows(tmp_path):
    # x uniform on [0.6, 1.4] in bins of width 0.4: two cells of unequal size
    sim = dict(simulate_section(n=60), x_spec={"kind": "uniform", "lo": [0.6], "hi": [1.4]})
    cfg = write_config(
        tmp_path,
        {
            "seed": 5,
            "simulate": sim,
            "identify": {
                "pipeline": "brenier",
                "dataset": str(tmp_path / "dataset.csv"),
                "eps_spec": UNIT_BOX_2D,
                "partition": {"scheme": "bins", "widths": [0.4]},
                "outputs": {"prefix": "ident"},
            },
        },
    )
    out = str(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert main(["identify", "--config", cfg, "--out", out]) == 0
    cells = json.loads((tmp_path / "ident_diagnostics.json").read_text())["cells"]
    assert len(cells) == 2
    assert [c["solver_path"] for c in cells] == ["replicated", "replicated"]
    sizes = [c["n_ref"] for c in cells]
    assert sum(sizes) == 60 and sizes[0] != sizes[1]


def test_identify_without_n_ref_gives_a_prime_cell_an_exact_lattice(tmp_path):
    # 97 rows in one cell: the reference lattice has 97 points, so the
    # transport takes the replicated assignment, not the LP
    cfg = write_config(
        tmp_path,
        {
            "seed": 5,
            "simulate": simulate_section(n=97),
            "identify": {
                "pipeline": "brenier",
                "dataset": str(tmp_path / "dataset.csv"),
                "eps_spec": UNIT_BOX_2D,
                "reference_mode": "lattice",
                "outputs": {"prefix": "ident"},
            },
        },
    )
    out = str(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert main(["identify", "--config", cfg, "--out", out]) == 0
    (cell,) = json.loads((tmp_path / "ident_diagnostics.json").read_text())["cells"]
    assert cell["n_ref"] == 97
    assert cell["solver_path"] == "replicated"


def test_simulate_report_counts_max_plus_cells_for_any_thread_split(tmp_path):
    # the product runs on the calling thread, so there is no split to vary
    cfg = write_config(tmp_path, {"seed": 3, "simulate": simulate_section(n=60)})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    facts = json.loads((tmp_path / "sim_report.json").read_text())["maxplus"]
    assert facts["grid_points"] == 25 * 25
    assert facts["cells_dense"] == 60 * 60 * 25 * 25
    assert 0 < facts["cells_evaluated"] < facts["cells_dense"]


# Criterion 6's neg-quad-surplus spec in 2-D: Q couples the two z axes.
NEG_QUAD_SURPLUS_2D = {
    "u_bar": {"kind": "polynomial", "d_a": 1, "d_z": 2, "terms": [{"coeff": 0.0}]},
    "cost": QUADRATIC_2D["cost"],
    "zeta": {"kind": "neg-quadratic", "q": [[1.0, 0.2], [0.2, 1.0]], "d_x": 1},
}


# Criterion 6's tinbergen spec in 2-D: the producer type y_k scales axis k's
# curvature, so its producers are drawn positive.
TINBERGEN_2D = {
    "u_bar": NEG_QUAD_SURPLUS_2D["u_bar"],
    "cost": {
        "kind": "polynomial", "d_a": 2, "d_z": 2,
        "terms": [{"coeff": 0.5, "a": [1, 0], "z": [2, 0]},
                  {"coeff": 0.5, "a": [0, 1], "z": [0, 2]}],
    },
    "zeta": QUADRATIC_2D["zeta"],
}
TINBERGEN_PRODUCERS = {"kind": "uniform", "lo": [0.5, 0.5], "hi": [1.5, 1.5]}


@pytest.mark.parametrize(
    "structural, z_lo, z_hi, path",
    [
        (QUADRATIC_2D, (1.9, 1.9), (3.1, 3.1), "axis-hull"),
        (NEG_QUAD_SURPLUS_2D, (-0.6, -0.6), (1.8, 1.8), "pruned"),
        (TINBERGEN_2D, (-0.2, -0.2), (2.4, 2.4), "axis-hull"),
    ],
)
def test_simulate_report_records_the_max_plus_path(tmp_path, structural, z_lo, z_hi, path):
    n, g = 50, 20 * 20
    producers = TINBERGEN_PRODUCERS if structural is TINBERGEN_2D else UNIT_BOX_2D
    sim = dict(simulate_section(n=n, resolution=20, z_lo=z_lo, z_hi=z_hi),
               structural=structural, producer_spec=producers)
    cfg = write_config(tmp_path, {"seed": 5, "simulate": sim})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    facts = json.loads((tmp_path / "sim_report.json").read_text())["maxplus"]
    assert facts["path"] == path
    assert facts["cells_dense"] == n * n * g
    if path == "axis-hull":
        # one gathered difference per pair, plus G for each pair redone densely
        redone, rest = divmod(facts["cells_evaluated"] - n * n, g)
        assert rest == 0 and 0 <= redone < n
    else:
        assert n * n < facts["cells_evaluated"] < facts["cells_dense"]


def test_tiny_grid_aborts_with_exit_3(tmp_path):
    cfg = write_config(
        tmp_path,
        {"seed": 1, "simulate": simulate_section(n=10, resolution=5,
                                                 z_lo=(0.0, 0.0), z_hi=(0.5, 0.5))},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_scalar_pipeline_on_2d_data_exits_1(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {
            "seed": 2,
            "simulate": simulate_section(n=15, resolution=15),
            "identify": {
                "pipeline": "scalar",
                "dataset": str(tmp_path / "dataset.csv"),
                "eps_spec": UNIT_BOX_2D,
                "zeta": {"kind": "bilinear", "dim": 2, "d_x": 1},
                "outputs": {"prefix": "ident"},
            },
        },
    )
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    assert main(["identify", "--config", cfg_path, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("pipeline", ["scalar", "brenier", "general", "simeq"])
def test_every_pipeline_refuses_a_point_reference_law(tmp_path, pipeline, capsys):
    (tmp_path / "dataset.csv").write_text("x_1,z_1,p\n1,0.5,0.3\n1,1.0,0.6\n1,1.5,1.1\n")
    section = {
        "pipeline": pipeline,
        "dataset": str(tmp_path / "dataset.csv"),
        "eps_spec": {"kind": "point", "value": [0.5]},
        "outputs": {"prefix": "ident"},
    }
    if pipeline in ("scalar", "general"):
        section["zeta"] = {"kind": "bilinear", "dim": 1, "d_x": 1}
    cfg = write_config(tmp_path, {"seed": 0, "identify": section})
    assert main(["identify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "absolutely continuous" in capsys.readouterr().err
    assert not (tmp_path / "ident_cell000.csv").exists()


def test_non_injective_surplus_exits_4(tmp_path):
    # 1-D market, then identification under zeta = z * eps^2 with a
    # symmetric reference lattice: +-eps collide, twist check refuses
    sim = {
        "structural": {
            "u_bar": {"kind": "neg-quadratic", "d_a": 1, "q": [[1.0]],
                      "center_matrix": [[0.0]], "center_offset": [2.0]},
            "cost": {"kind": "polynomial", "d_a": 1, "d_z": 1,
                     "terms": [{"coeff": 0.5, "z": [2]},
                               {"coeff": -1.0, "a": [1], "z": [1]}]},
            "zeta": {"kind": "bilinear", "dim": 1, "d_x": 1},
        },
        "x_spec": {"kind": "point", "value": [1.0]},
        "eps_spec": {"kind": "uniform", "lo": [0.0], "hi": [1.0]},
        "producer_spec": {"kind": "uniform", "lo": [0.0], "hi": [1.0]},
        "n_consumers": 20, "n_producers": 20,
        "z_grid": {"lo": [0.0], "hi": [3.0], "resolution": 400},
        "outputs": {"dataset": "dataset.csv", "report": "sim_report.json"},
    }
    cfg = write_config(
        tmp_path,
        {
            "seed": 3,
            "simulate": sim,
            "identify": {
                "pipeline": "general",
                "dataset": str(tmp_path / "dataset.csv"),
                "eps_spec": {"kind": "uniform", "lo": [-1.0], "hi": [1.0]},
                "zeta": {"kind": "polynomial", "d_x": 0, "d_z": 1,
                         "terms": [{"coeff": 1.0, "eps": [2], "z": [1]}]},
                "n_ref": 64,
                "reference_mode": "lattice",
                "outputs": {"prefix": "ident"},
            },
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["identify", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_transport_exact_fixture_and_entropic_mode(tmp_path):
    mu = from_samples(np.array([[0.0], [1.0]]))
    nu = from_samples(np.array([[0.0], [1.0]]))
    write_measure_csv(mu, tmp_path / "mu.csv")
    write_measure_csv(nu, tmp_path / "nu.csv")
    cfg = write_config(
        tmp_path,
        {
            "seed": 0,
            "transport": {
                "source": str(tmp_path / "mu.csv"),
                "target": str(tmp_path / "nu.csv"),
                "zeta": {"kind": "bilinear", "dim": 1},
                "mode": "exact",
                "outputs": {"plan": "plan.csv", "duals": "duals.csv",
                            "report": "transport.json"},
            },
        },
    )
    assert main(["transport", "--config", cfg, "--out", str(tmp_path)]) == 0
    # identity plan: support rows (0,0) and (1,1) at mass 1/2
    rows = (tmp_path / "plan.csv").read_text().splitlines()
    assert rows[0] == "i,j,mass"
    assert rows[1].startswith("0,0,") and rows[2].startswith("1,1,")
    report = json.loads((tmp_path / "transport.json").read_text())
    assert report["duality_gap"] <= 1e-9

    cfg2 = write_config(
        tmp_path,
        {
            "seed": 0,
            "transport": {
                "source": str(tmp_path / "mu.csv"),
                "target": str(tmp_path / "nu.csv"),
                "zeta": {"kind": "bilinear", "dim": 1},
                "mode": "entropic", "epsilon": 100.0, "tol": 1e-10,
                "outputs": {"plan": "plan_e.csv", "duals": "duals_e.csv",
                            "report": "transport_e.json"},
            },
        },
        name="config2.json",
    )
    assert main(["transport", "--config", cfg2, "--out", str(tmp_path)]) == 0
    from hedonic.ot import read_plan_csv

    plan = read_plan_csv(tmp_path / "plan_e.csv", (2, 2))
    coupling = np.zeros(plan.shape)
    coupling[plan.rows, plan.cols] = plan.mass
    assert np.abs(coupling - 0.25).max() <= 1e-3  # near-product at high epsilon


def test_check_detects_tampered_prices(tmp_path):
    base = {
        "seed": 5,
        "simulate": simulate_section(n=20, resolution=21),
        "check": {
            "equilibrium": {
                "simulate": simulate_section(n=20, resolution=21),
                "dataset": str(tmp_path / "dataset.csv"),
            },
        },
    }
    cfg = write_config(tmp_path, base)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 0.25)
    lines[1] = ",".join(cells)
    (tmp_path / "dataset.csv").write_text("\n".join(lines) + "\n")
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not report["passed"]
    assert report["equilibrium"]["verification"]["failures"]


def test_check_rejects_a_dataset_with_too_few_quality_columns(tmp_path):
    # point tastes and producers: every pair trades z = (2.5, 2.5), so a
    # one-column z broadcasts onto the replay's values unless shapes are compared
    section = simulate_section(n=20, resolution=21)
    section["eps_spec"] = section["producer_spec"] = {"kind": "point", "value": [0.5, 0.5]}
    cfg = write_config(
        tmp_path,
        {
            "seed": 5,
            "simulate": section,
            "check": {
                "equilibrium": {"simulate": section, "dataset": str(tmp_path / "dataset.csv")},
            },
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "dataset.csv").read_text().splitlines()]
    assert rows[0] == ["x_1", "z_1", "z_2", "p"]
    assert {tuple(row[1:3]) for row in rows[1:]} == {("2.5", "2.5")}
    (tmp_path / "dataset.csv").write_text(
        "".join(",".join([row[0], row[1], row[3]]) + "\n" for row in rows)
    )
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["equilibrium"]["dataset_matches_replay"] is False
    assert not report["passed"]


def simulated_check_config(tmp_path, section, seed=5):
    """Config whose check certifies the dataset that simulate writes; runs simulate."""
    cfg = write_config(
        tmp_path,
        {
            "seed": seed,
            "simulate": section,
            "check": {
                "equilibrium": {"simulate": section, "dataset": str(tmp_path / "dataset.csv")},
            },
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    return cfg


def rewrite_dataset_cell(tmp_path, row, column, change):
    """Replace one cell of dataset.csv (row 0 is the first data row)."""
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(change(float(cells[column])))
    lines[row + 1] = ",".join(cells)
    (tmp_path / "dataset.csv").write_text("\n".join(lines) + "\n")


def test_check_certifies_a_market_with_more_producers_than_consumers(tmp_path):
    section = dict(simulate_section(n=20, resolution=21), n_producers=30)
    cfg = simulated_check_config(tmp_path, section)
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())["equilibrium"]
    rows = len((tmp_path / "dataset.csv").read_text().splitlines()) - 1
    assert report["method"] == "certificate"
    assert report["dataset_rows"] == rows >= 30
    assert report["flow_value"] == report["flow_lcm"] == 60
    assert report["tight_arcs"] >= 2 * 30
    assert report["verification"]["clearing_max_dev"] <= 1e-9

    rewrite_dataset_cell(tmp_path, 1, -1, lambda p: p + 0.25)
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not report["passed"]
    assert report["equilibrium"]["verification"]["failures"]


def test_check_with_a_dataset_neither_simulates_nor_solves(tmp_path):
    cfg = simulated_check_config(tmp_path, simulate_section(n=20, resolution=21))

    def refuse(*args, **kwargs):
        raise AssertionError("check with a dataset must not simulate or solve")

    with mock.patch("hedonic.equilibrium.simulate_market", refuse), \
            mock.patch("hedonic.equilibrium._max_plus", refuse), \
            mock.patch("hedonic.equilibrium._axis_hull_max_plus", refuse), \
            mock.patch("hedonic.equilibrium.solve_exact", refuse), \
            mock.patch("hedonic.ot.solve_exact", refuse):
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())["equilibrium"]
    assert report["method"] == "certificate" and report["passed"]


def test_check_without_a_dataset_simulates(tmp_path):
    section = simulate_section(n=20, resolution=21)
    cfg = write_config(tmp_path, {"seed": 5, "check": {"equilibrium": {"simulate": section}}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())["equilibrium"]
    assert report["method"] == "simulate" and report["verification"]["passed"]
    assert "dataset_matches_replay" not in report


def test_check_rejects_a_dataset_simulated_under_another_seed(tmp_path):
    cfg = simulated_check_config(tmp_path, simulate_section(n=20, resolution=21), seed=5)
    assert main(["check", "--config", cfg, "--seed", "6", "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    # the tastes differ, but x is a point and every z a grid point
    assert report["equilibrium"]["dataset_matches_replay"] is True
    assert not report["passed"]
    assert report["equilibrium"]["verification"]["failures"]


@pytest.mark.parametrize("column,change", [
    (1, lambda z: z + 1e-3),  # z_1 off the grid
    (0, lambda x: x + 0.5),  # x none of the consumer draws
])
def test_check_rejects_a_dataset_row_the_market_cannot_hold(tmp_path, column, change):
    cfg = simulated_check_config(tmp_path, simulate_section(n=20, resolution=21))
    rewrite_dataset_cell(tmp_path, 3, column, change)
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert report["equilibrium"]["dataset_matches_replay"] is False
    assert not report["passed"]


def test_check_of_a_dataset_trading_on_the_grid_box_aborts_with_exit_3(tmp_path):
    # simulate lets every trade sit on the box of a grid too small for the
    # market; check keeps its own threshold and refuses the certificate
    section = dict(simulate_section(n=10, resolution=5, z_lo=(0.0, 0.0), z_hi=(0.5, 0.5)),
                   boundary_threshold=1.0)
    simulated_check_config(tmp_path, section)
    check_section = {"simulate": simulate_section(n=10, resolution=5, z_lo=(0.0, 0.0),
                                                  z_hi=(0.5, 0.5)),
                     "dataset": str(tmp_path / "dataset.csv")}
    cfg = write_config(tmp_path, {"seed": 5, "check": {"equilibrium": check_section}},
                       name="check.json")
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "sim_report.json").read_text())
    assert report["verification"]["boundary_fraction"] > 0.01

    check_section["simulate"]["boundary_threshold"] = 1.0
    cfg = write_config(tmp_path, {"seed": 5, "check": {"equilibrium": check_section}},
                       name="check.json")
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_check_flags_broken_plan_marginals(tmp_path):
    mu = from_samples(np.array([[0.0], [1.0]]))
    nu = from_samples(np.array([[0.0], [1.0]]))
    write_measure_csv(mu, tmp_path / "mu.csv")
    write_measure_csv(nu, tmp_path / "nu.csv")
    (tmp_path / "plan.csv").write_text("i,j,mass\n0,0,0.5\n1,1,0.25\n")
    cfg = write_config(
        tmp_path,
        {
            "seed": 0,
            "check": {
                "plan": {
                    "plan": str(tmp_path / "plan.csv"),
                    "source": str(tmp_path / "mu.csv"),
                    "target": str(tmp_path / "nu.csv"),
                },
            },
        },
    )
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "check_report.json").read_text())
    assert not report["plan"]["feasible"]


@pytest.mark.parametrize(
    "text",
    ["i,j,mass\n0,0,0.5\n-1,1,0.5\n", "i,j,mass\n0,0,0.5\n5,0,0.5\n",
     "i,j,mass\n0,0,0.25\n0,0,0.5\n1,1,0.5\n",
     # headerless and empty files are config errors, not misread plans
     # that then fail verification (exit 2)
     "0,0,0.5\n1,1,0.5\n", ""],
    ids=["negative-index", "index-out-of-range", "repeated-entry", "headerless", "zero-byte"],
)
def test_check_rejects_bad_plan_indices(tmp_path, text):
    mu = from_samples(np.array([[0.0], [1.0]]))
    nu = from_samples(np.array([[0.0], [1.0]]))
    write_measure_csv(mu, tmp_path / "mu.csv")
    write_measure_csv(nu, tmp_path / "nu.csv")
    (tmp_path / "plan.csv").write_text(text)
    cfg = write_config(
        tmp_path,
        {
            "seed": 0,
            "check": {
                "plan": {
                    "plan": str(tmp_path / "plan.csv"),
                    "source": str(tmp_path / "mu.csv"),
                    "target": str(tmp_path / "nu.csv"),
                },
            },
        },
    )
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "section, key",
    [({"equilibirum": {"simulate": simulate_section(n=20, resolution=21)}}, "['equilibirum']"),
     ({}, "got []"),
     ({"outputs": {"report": "check_report.json"}}, "got ['outputs']")],
    ids=["misspelled-section", "empty", "outputs-only"],
)
def test_check_without_a_known_check_section_exits_1(tmp_path, capsys, section, key):
    cfg = write_config(tmp_path, {"seed": 5, "check": section})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "check_report.json").exists()


def test_check_plan_needs_zeta_for_its_duals(tmp_path, capsys):
    # an anti-assortative plan of two points on a line with zero duals:
    # under the bilinear surplus it is not optimal, so its cycles and
    # duals fail the check
    pts = from_samples(np.array([[0.0], [1.0]]))
    write_measure_csv(pts, tmp_path / "mu.csv")
    write_measure_csv(pts, tmp_path / "nu.csv")
    (tmp_path / "plan.csv").write_text("i,j,mass\n0,1,0.5\n1,0,0.5\n")
    (tmp_path / "duals.csv").write_text(
        "side,idx,value\nsource,0,0\nsource,1,0\ntarget,0,0\ntarget,1,0\npin,0,0\n"
    )
    plan = {
        "plan": str(tmp_path / "plan.csv"),
        "source": str(tmp_path / "mu.csv"),
        "target": str(tmp_path / "nu.csv"),
        "duals": str(tmp_path / "duals.csv"),
    }
    cfg = write_config(tmp_path, {"seed": 0, "check": {"plan": plan}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "check.plan.duals" in capsys.readouterr().err
    plan["zeta"] = {"kind": "bilinear", "dim": 1}
    cfg = write_config(tmp_path, {"seed": 0, "check": {"plan": plan}})
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "values, code",
    [
        ("source,0,0\nsource,1,1\ntarget,0,0\ntarget,1,0\n", 0),
        ("source,0,0\nsource,1,1\ntarget,0,0\ntarget,0,0\n", 1),
        ("source,0,0\ntarget,0,0\ntarget,1,0\n", 1),
        ("source,0,0\nsource,1,1\ntarget,0,0\n", 1),
    ],
    ids=["well-formed", "repeated-target", "short-source", "short-target"],
)
def test_check_rejects_a_malformed_duals_file(tmp_path, values, code):
    # 2-point source and target measures
    pts = from_samples(np.array([[0.0], [1.0]]))
    write_measure_csv(pts, tmp_path / "mu.csv")
    write_measure_csv(pts, tmp_path / "nu.csv")
    (tmp_path / "plan.csv").write_text("i,j,mass\n0,0,0.5\n1,1,0.5\n")
    (tmp_path / "duals.csv").write_text("side,idx,value\n" + values + "pin,0,0\n")
    cfg = write_config(
        tmp_path,
        {
            "seed": 0,
            "check": {
                "plan": {
                    "plan": str(tmp_path / "plan.csv"),
                    "source": str(tmp_path / "mu.csv"),
                    "target": str(tmp_path / "nu.csv"),
                    "zeta": {"kind": "bilinear", "dim": 1},
                    "duals": str(tmp_path / "duals.csv"),
                },
            },
        },
    )
    assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == code


def test_identify_on_a_dataset_with_short_rows_exits_1(tmp_path):
    # the header names two quality axes, but each row holds x, one z and p
    (tmp_path / "dataset.csv").write_text("x_1,z_1,z_2,p\n1,2.0,0.5\n1,2.5,0.7\n1,3.0,0.9\n")
    cfg = write_config(
        tmp_path,
        {
            "seed": 0,
            "identify": {
                "pipeline": "general",
                "dataset": str(tmp_path / "dataset.csv"),
                "eps_spec": UNIT_BOX_2D,
                "zeta": {"kind": "bilinear", "dim": 2, "d_x": 1},
                "n_ref": 4,
                "outputs": {"prefix": "identified"},
            },
        },
    )
    assert main(["identify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.glob("identified*"))


def test_conjugate_command(tmp_path):
    from hedonic.conjugate import GridFunction, write_grid_function_csv
    from hedonic.measures import from_samples as fs

    grid = fs(np.linspace(-2, 2, 161)[:, None])
    write_grid_function_csv(
        GridFunction(grid, 0.5 * grid.points[:, 0] ** 2), tmp_path / "v.csv"
    )
    cfg = write_config(
        tmp_path,
        {
            "seed": 0,
            "conjugate": {
                "grid_function": str(tmp_path / "v.csv"),
                "zeta": {"kind": "bilinear", "dim": 1},
                "eps_grid": {"lo": [-1.0], "hi": [1.0], "resolution": 41},
                "outputs": {"conjugate": "vz.csv", "report": "conj.json"},
            },
        },
    )
    assert main(["conjugate", "--config", cfg, "--out", str(tmp_path)]) == 0
    from hedonic.conjugate import read_grid_function_csv

    out = read_grid_function_csv(tmp_path / "vz.csv")
    # self-conjugacy of the half-quadratic within grid resolution
    assert np.abs(out.values - 0.5 * out.grid.points[:, 0] ** 2).max() <= (4 / 160) ** 2


REPORTS = {
    "simulate": "sim_report.json",
    "identify": "ident_diagnostics.json",
    "transport": "transport_report.json",
    "conjugate": "conjugate_report.json",
    "check": "check_report.json",
}


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_every_report_echoes_its_config(tmp_path, command):
    from hedonic.conjugate import GridFunction, write_grid_function_csv

    line = from_samples(np.linspace(-1.0, 1.0, 5)[:, None])
    write_measure_csv(line, tmp_path / "line.csv")
    write_grid_function_csv(GridFunction(line, 0.5 * line.points[:, 0] ** 2), tmp_path / "v.csv")
    bilinear = {"kind": "bilinear", "dim": 1}
    cfg = write_config(
        tmp_path,
        {
            "seed": 3,
            "simulate": simulate_section(n=20, resolution=21),
            "identify": {
                "pipeline": "brenier",
                "dataset": str(tmp_path / "dataset.csv"),
                "eps_spec": UNIT_BOX_2D,
                "outputs": {"prefix": "ident"},
            },
            "transport": {
                "source": str(tmp_path / "line.csv"),
                "target": str(tmp_path / "line.csv"),
                "zeta": bilinear,
            },
            "conjugate": {
                "grid_function": str(tmp_path / "v.csv"),
                "zeta": bilinear,
                "eps_grid": {"lo": [-1.0], "hi": [1.0], "resolution": 5},
            },
            "check": {"equilibrium": {"simulate": simulate_section(n=20, resolution=21)}},
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "config" in json.loads((tmp_path / REPORTS[command]).read_text())


def test_missing_config_exits_1(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1


def test_unknown_pipeline_exits_1(tmp_path):
    cfg = write_config(
        tmp_path,
        {"seed": 0, "identify": {"pipeline": "wavelet", "dataset": "x.csv",
                                 "eps_spec": UNIT_BOX_2D}},
    )
    assert main(["identify", "--config", cfg, "--out", str(tmp_path)]) == 1


def every_section(tmp_path):
    """A config whose five command sections run as written, with every
    nested section present, on small inputs written to tmp_path."""
    from hedonic.conjugate import GridFunction, write_grid_function_csv

    line = from_samples(np.linspace(-1.0, 1.0, 5)[:, None])
    write_measure_csv(line, tmp_path / "line.csv")
    write_grid_function_csv(GridFunction(line, 0.5 * line.points[:, 0] ** 2), tmp_path / "v.csv")
    (tmp_path / "plan.csv").write_text("i,j,mass\n" + "".join(f"{k},{k},0.2\n" for k in range(5)))
    (tmp_path / "dataset.csv").write_text("x_1,z_1,p\n1,0.5,0.3\n1,1.0,0.6\n1,1.5,1.1\n")
    bilinear = {"kind": "bilinear", "dim": 1}
    unit = {"kind": "uniform", "lo": [0.0], "hi": [1.0]}
    config = {
        "seed": 3,
        "simulate": simulate_section(n=20, resolution=21),
        "identify": {
            "pipeline": "scalar",
            "dataset": str(tmp_path / "dataset.csv"),
            "eps_spec": {"kind": "product", "marginals": [{"kind": "uniform", "lo": 0, "hi": 1}]},
            "zeta": {"kind": "bilinear", "dim": 1, "d_x": 1},
            "partition": {"scheme": "exact"},
            "outputs": {"prefix": "ident"},
        },
        "transport": {
            "source": str(tmp_path / "line.csv"),
            "target": str(tmp_path / "line.csv"),
            "zeta": {"kind": "polynomial", "d_x": 0, "d_z": 1,
                     "terms": [{"coeff": 1.0, "eps": [1], "z": [1]}]},
            "outputs": {"plan": "plan_out.csv"},
        },
        "conjugate": {
            "grid_function": str(tmp_path / "v.csv"),
            "zeta": bilinear,
            "eps_grid": {"lo": [-1.0], "hi": [1.0], "resolution": 5},
            "outputs": {"report": "conjugate_report.json"},
        },
        "check": {
            "equilibrium": {"simulate": simulate_section(n=20, resolution=21)},
            "plan": {"plan": str(tmp_path / "plan.csv"), "source": str(tmp_path / "line.csv"),
                     "target": str(tmp_path / "line.csv"), "zeta": bilinear},
            "twist": {"zeta": bilinear, "eps_spec": unit, "n_grid": 8,
                      "z_grid": {"lo": [0.0], "hi": [1.0], "resolution": 4}},
            "outputs": {"report": "check_report.json"},
        },
    }
    return json.loads(json.dumps(config))  # a copy that shares no mapping


def dotted(path):
    """The dotted config path of a key path: names joined by dots, list
    indices in brackets."""
    out = ""
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else f".{step}" if out else step
    return out


MISSPELLED = [
    ("simulate", ("sede",)),
    ("simulate", ("simulate", "boundary_treshold")),
    ("simulate", ("simulate", "outputs", "reprot")),
    ("simulate", ("simulate", "z_grid", "resolutoin")),
    ("simulate", ("simulate", "structural", "costs")),
    ("simulate", ("simulate", "structural", "u_bar", "centre_offset")),
    ("simulate", ("simulate", "structural", "cost", "terms", 2, "esp")),
    ("simulate", ("simulate", "structural", "zeta", "dx")),
    ("simulate", ("simulate", "x_spec", "values")),
    ("simulate", ("simulate", "eps_spec", "low")),
    ("identify", ("idnetify",)),
    ("identify", ("identify", "refrence_mode")),
    ("identify", ("identify", "k_neighbors")),
    ("identify", ("identify", "partition", "width")),
    ("identify", ("identify", "outputs", "prefx")),
    ("identify", ("identify", "eps_spec", "marginals", 0, "sigma")),
    ("identify", ("identify", "zeta", "d_z")),
    ("transport", ("transport", "max_iter")),
    ("transport", ("transport", "tol")),
    ("transport", ("transport", "outputs", "dual")),
    ("transport", ("transport", "zeta", "terms", 0, "esp")),
    ("conjugate", ("conjugate", "eps_gird")),
    ("conjugate", ("conjugate", "eps_grid", "padding")),
    ("conjugate", ("conjugate", "outputs", "conjugated")),
    ("conjugate", ("conjugate", "zeta", "dims")),
    ("check", ("check", "twsit")),
    ("check", ("check", "outputs", "reprot")),
    ("check", ("check", "equilibrium", "datset")),
    ("check", ("check", "equilibrium", "simulate", "boundary_treshold")),
    ("check", ("check", "equilibrium", "simulate", "structural", "zeta", "d_z")),
    ("check", ("check", "plan", "cycles")),
    ("check", ("check", "plan", "zeta", "q")),
    ("check", ("check", "twist", "ngrid")),
    ("check", ("check", "twist", "z_grid", "resolutoin")),
    ("check", ("check", "twist", "eps_spec", "dim")),
]


@pytest.mark.parametrize("command, path", MISSPELLED, ids=[dotted(p) for _, p in MISSPELLED])
def test_a_misspelled_key_exits_1_naming_its_path(tmp_path, capsys, command, path):
    config = every_section(tmp_path)
    mapping = config
    for step in path[:-1]:
        mapping = mapping[step]
    mapping[path[-1]] = {"trials": 0} if path[-1] == "cycles" else 1
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"unknown key {dotted(path)}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, message", [
    ({"seed": 0, "check": ["twist"]}, "check must be a mapping, got list"),
    (["check"], "the config must be a mapping, got list"),
    ({"seed": 0, "check": {"twist": "twist.json"}}, "check.twist must be a mapping, got str"),
    ({"seed": 0, "check": {"equilibrium": {"simulate": [1]}}},
     "check.equilibrium.simulate must be a mapping"),
    ({"seed": 0}, "check is required"),
], ids=["check-list", "top-list", "twist-str", "simulate-list", "no-check"])
def test_a_section_that_is_not_a_mapping_exits_1_naming_it(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, payload)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, change, message", [
    ("identify", {"pipeline": "brenier"}, "unknown key identify.zeta:"),
    ("identify", {"pipeline": "simeq"}, "unknown key identify.zeta:"),
    ("identify", {"pipeline": "general", "zeta": None}, "identify.zeta is required"),
    ("transport", {"mode": "entropic"}, "transport.epsilon is required"),
    ("transport", {"mode": "entropic", "epsilon": 1.0, "max_iter": 5},
     "unknown key transport.max_iter:"),
    ("transport", {"mode": "sinkhorn"}, "unknown transport.mode 'sinkhorn'"),
    ("conjugate", {"eps_grid": {"hi": [1.0]}}, "conjugate.eps_grid takes lo and hi together"),
    ("identify", {"partition": {"scheme": "bins"}}, "identify.partition.widths is required"),
    ("identify", {"partition": {"scheme": "grid"}}, "unknown identify.partition.scheme 'grid'"),
], ids=["brenier-zeta", "simeq-zeta", "general-no-zeta", "entropic-no-epsilon",
        "entropic-max-iter", "unknown-mode", "lone-hi", "bins-no-widths", "unknown-scheme"])
def test_keys_that_only_some_modes_take(tmp_path, capsys, command, change, message):
    config = every_section(tmp_path)
    config[command].update(change)
    config[command] = {k: v for k, v in config[command].items() if v is not None}
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, path, value, drop, message", [
    ("identify", ("identify", "partition", "widths"), [0.5], None,
     "unknown key identify.partition.widths:"),
    ("check", ("check", "plan", "x"), [1.0], ("check", "plan", "zeta"),
     "check.plan.x needs a check.plan.zeta surplus"),
], ids=["exact-widths", "plan-x-without-zeta"])
def test_a_key_the_mode_ignores_exits_1_naming_it(
    tmp_path, capsys, command, path, value, drop, message
):
    config = every_section(tmp_path)
    for key_path, new in ((path, value), (drop, None)):
        if key_path is not None:
            mapping = config
            for step in key_path[:-1]:
                mapping = mapping[step]
            mapping[key_path[-1]] = new
            if new is None:
                del mapping[key_path[-1]]
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Per row: a value of the wrong type, or below its floor, and the start of
# the error, which names the value's dotted key.
MISTYPED = [
    ("simulate", ("seed",), 1.5, "seed must be a whole number of at least 0"),
    ("simulate", ("seed",), True, "seed must be a whole number of at least 0"),
    ("simulate", ("seed",), -1, "seed must be a whole number of at least 0"),
    ("simulate", ("simulate", "n_consumers"), 20.7,
     "simulate.n_consumers must be a whole number of at least 1"),
    ("simulate", ("simulate", "n_consumers"), True,
     "simulate.n_consumers must be a whole number of at least 1"),
    ("simulate", ("simulate", "n_consumers"), 0,
     "simulate.n_consumers must be a whole number of at least 1"),
    ("simulate", ("simulate", "n_producers"), "20",
     "simulate.n_producers must be a whole number of at least 1"),
    ("simulate", ("simulate", "z_grid", "resolution"), 2.5,
     "simulate.z_grid.resolution must be a whole number of at least 2 or a list"),
    ("simulate", ("simulate", "z_grid", "resolution"), 1,
     "simulate.z_grid.resolution must be a whole number of at least 2 or a list"),
    ("simulate", ("simulate", "z_grid", "resolution"), [21, 20.5],
     "simulate.z_grid.resolution[1] must be a whole number of at least 2"),
    ("simulate", ("simulate", "boundary_threshold"), True,
     "simulate.boundary_threshold must be a finite number"),
    ("simulate", ("simulate", "boundary_threshold"), "0.5",
     "simulate.boundary_threshold must be a finite number"),
    ("simulate", ("simulate", "structural", "zeta", "d_x"), True,
     "simulate.structural.zeta.d_x must be a whole number of at least 0"),
    ("simulate", ("simulate", "outputs", "dataset"), 5,
     "simulate.outputs.dataset must be a string"),
    ("identify", ("identify", "n_ref"), 50.5, "identify.n_ref must be a whole number of at least 1"),
    ("identify", ("identify", "n_ref"), 0, "identify.n_ref must be a whole number of at least 1"),
    ("identify", ("identify", "dataset"), 7, "identify.dataset must be a string"),
    ("identify", ("identify", "zeta", "dim"), 1.5,
     "identify.zeta.dim must be a whole number of at least 0"),
    ("identify", ("identify", "eps_spec", "marginals"), 3,
     "identify.eps_spec.marginals must be a list"),
    ("identify", ("identify", "eps_spec", "marginals", 0, "lo"), "a",
     "identify.eps_spec.marginals[0].lo must be a finite number"),
    ("identify", ("identify", "eps_spec", "marginals", 0), {"kind": "normal", "sigma": "2"},
     "identify.eps_spec.marginals[0].sigma must be a finite number"),
    ("identify", ("identify", "partition"), {"scheme": "bins", "widths": True},
     "identify.partition.widths must be a list"),
    ("transport", ("transport", "x"), True, "transport.x must be a list"),
    ("transport", ("transport", "zeta", "d_z"), 1.5,
     "transport.zeta.d_z must be a whole number of at least 0"),
    ("transport", ("transport", "zeta", "terms"), 5, "transport.zeta.terms must be a list"),
    ("transport", ("transport", "zeta", "terms", 0, "coeff"), "1",
     "transport.zeta.terms[0].coeff must be a finite number"),
    ("transport", ("transport", "zeta", "terms", 0, "z"), [1.6],
     "transport.zeta.terms[0].z[0] must be a whole number of at least 0"),
    ("conjugate", ("conjugate", "eps_grid", "resolution"), 5.5,
     "conjugate.eps_grid.resolution must be a whole number of at least 0"),
    ("check", ("check", "equilibrium", "simulate", "n_producers"), 20.7,
     "check.equilibrium.simulate.n_producers must be a whole number of at least 1"),
    ("check", ("check", "twist", "n_grid"), 9.7,
     "check.twist.n_grid must be a whole number of at least 0"),
    ("check", ("check", "twist", "z_grid", "resolution"), 4.5,
     "check.twist.z_grid.resolution must be a whole number of at least 0"),
]


@pytest.mark.parametrize("command, path, value, message", MISTYPED,
                         ids=[f"{message.split()[0]}={value!r}" for *_, value, message in MISTYPED])
def test_a_count_that_is_no_whole_number_exits_1_naming_it(
    tmp_path, capsys, command, path, value, message
):
    # named for its first rows, the counts; every row is a mistyped value
    config = every_section(tmp_path)
    mapping = config
    for step in path[:-1]:
        mapping = mapping[step]
    mapping[path[-1]] = value
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert f"{command}: config error: {message}, got " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_integral_float_count_is_read_and_echoed_as_an_int(tmp_path):
    config = every_section(tmp_path)
    config["simulate"]["n_consumers"] = 20.0
    config["simulate"]["z_grid"]["resolution"] = [21.0, 21]
    config["transport"]["zeta"]["d_z"] = 1.0
    cfg = write_config(tmp_path, config)
    for command in ("simulate", "transport"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "float")]) == 0
    config["simulate"]["n_consumers"] = 20
    config["simulate"]["z_grid"]["resolution"] = [21, 21]
    config["transport"]["zeta"]["d_z"] = 1
    cfg = write_config(tmp_path, config, "int.json")
    for command in ("simulate", "transport"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "int")]) == 0
    for name in ("dataset.csv", "sim_report.json", "plan_out.csv", "duals.csv"):
        assert (tmp_path / "float" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


# Per command: the optional keys that every_section sets, and the report's
# config entries once they are left out.
DEFAULTS = {
    "simulate": (
        ["outputs"],
        {"boundary_threshold": 0.01, "seed": 3,
         "outputs": {"dataset": "dataset.csv", "report": "simulate_report.json"}},
    ),
    "identify": (
        ["partition", "outputs"],
        {"n_ref": None, "reference_mode": "sample",
         "partition": {"scheme": "exact"}, "outputs": {"prefix": "identified"}},
    ),
    "transport": (
        ["outputs"],
        {"mode": "exact", "x": None,
         "outputs": {"plan": "plan.csv", "duals": "duals.csv", "report": "transport_report.json"}},
    ),
    "conjugate": (
        ["eps_grid", "outputs"],
        {"x": None, "eps_grid": {"lo": None, "hi": None, "resolution": 50},
         "outputs": {"conjugate": "conjugate.csv", "report": "conjugate_report.json"}},
    ),
    "check": (
        ["plan", "twist", "outputs"],
        {"plan": None, "twist": None, "outputs": {"report": "check_report.json"}},
    ),
}
DEFAULT_REPORTS = {
    "simulate": "simulate_report.json",
    "identify": "identified_diagnostics.json",
    "transport": "transport_report.json",
    "conjugate": "conjugate_report.json",
    "check": "check_report.json",
}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_every_report_config_holds_every_default(tmp_path, command):
    config = every_section(tmp_path)
    optional, defaults = DEFAULTS[command]
    for key in optional:
        del config[command][key]
    if command == "check":
        del config["check"]["equilibrium"]["simulate"]["outputs"]
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    echoed = json.loads((tmp_path / "out" / DEFAULT_REPORTS[command]).read_text())["config"]
    assert {key: echoed[key] for key in defaults} == defaults
    if command == "check":
        simulate = echoed["equilibrium"]["simulate"]
        assert echoed["equilibrium"]["dataset"] is None
        assert simulate["boundary_threshold"] == 0.01
        assert simulate["outputs"] == {"dataset": "dataset.csv", "report": "simulate_report.json"}
