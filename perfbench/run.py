"""Benchmark of the hedonic ``simulate -> identify -> check`` CLI pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds 1 --trace 1 --smoke

The run imports ``hedonic`` from ``src/`` of the checkout it sits in and
drives ``hedonic.cli.main`` in process, on configs generated from
``--seed``.  Set-up (import, warm-up passes at smoke size) is timed apart
from the measured passes.  A pass is every CLI command of the workload
once; passes repeat while the next one is expected to end within
``--seconds`` (at least one pass runs).  End-to-end figures are medians
over passes.

With ``--trace 1`` one untraced pass runs first, then the span wrappers of
``tracing.py`` are installed and traced passes follow; the per-layer
figures come from the traced passes and the tracing overhead is the
traced minus the untraced wall time of the same inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those of ``BENCHMARK.json``.  Human-readable lines before it
also give ``identify_s``, ``check_s``, ``error_rate`` and
``recovery_rel_rmse``.  A record with the run environment is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
# Printed beside the BENCHMARK.json metrics; not gated (see README.md).
REPORTED = {"identify_s": "s", "check_s": "s", "error_rate": "ratio",
            "recovery_rel_rmse": "ratio"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def _import_hedonic():
    """Import hedonic from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hedonic.cli

    if not Path(hedonic.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hedonic imported from {hedonic.__file__}, not {src}")
    return hedonic.cli


def _highs_version():
    try:
        from scipy.optimize._highspy import _core as highs
    except ImportError:
        return "unknown"
    return (f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
            f"{highs.HIGHS_VERSION_PATCH}")


def _environment(numpy, scipy):
    return {
        "nproc": NPROC,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": _highs_version(),
        "machine": platform.machine(),
    }


class Runner:
    """Runs ops, times them, checks their outputs and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None  # set for traced passes
        self.attempted = 0
        self.failed = 0
        self.op_id = 0

    def run_pass(self, ops):
        stats = {"wall_s": 0.0, "simulate_s": 0.0, "identify_s": 0.0, "check_s": 0.0}
        for op in ops:
            self.attempted += 1
            self.op_id += 1
            argv = [op.command, "--config", op.config, "--out", op.out]
            main = self.cli.main
            if self.tracer is not None:
                self.tracer.op = self.op_id
                main = self.tracer.wrap("cli", op.command, main)
            ok = False
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                ok = code == 0
                if not ok:
                    print(f"{op.command} {op.config}: exit {code}", file=sys.stderr)
            except Exception:
                traceback.print_exc()
            elapsed = time.perf_counter() - start
            stats["wall_s"] += elapsed
            stats[f"{op.command}_s"] += elapsed
            if ok:
                try:
                    op.check(stats)
                except Exception:
                    traceback.print_exc()
                    ok = False
            if not ok:
                self.failed += 1
                if self.tracer is not None:
                    self.tracer.counts["cli.errors"] += 1
        stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return stats


def _timed_passes(runner, build, seconds, after=None):
    """Run passes while the next one is expected to end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(runner.run_pass(build(len(results))))
        if after is not None:
            after(results[-1])
        if time.perf_counter() - start + results[-1]["wall_s"] > seconds:
            return results


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _layer_medians(per_pass):
    """Counts from the first traced pass; times are medians over passes."""
    out = dict(per_pass[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(p[key] for p in per_pass)
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The BLAS pool is sized when numpy loads, so cap it before any import.
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)

    t0 = time.perf_counter()
    try:
        cli = _import_hedonic()
    except ImportError as exc:
        print(f"perfbench: cannot import hedonic from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    runner = Runner(cli)
    try:
        setup = []
        for r in range(SETUP_REPS):
            t = time.perf_counter()
            runner.run_pass(workloads.build_pass(
                args.workload, str(work / f"warm{r}"), args.seed, smoke=True))
            setup.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup)

        def build(k, tag="pass"):
            return workloads.build_pass(args.workload, str(work / f"{tag}{k}"),
                                        (args.seed * 16 + k) * 16, smoke=args.smoke)

        passes = _timed_passes(runner, build, 0 if args.trace else args.seconds)
        layers = per_pass = None
        if args.trace:
            tracer = tracing.Tracer()
            runner.tracer = tracer
            per_pass = []

            def after(stats):
                per_pass.append(dict(tracer.layer_metrics(), **{"trace.wall_s": stats["wall_s"]}))
                tracer.reset()

            tracer.install()
            try:
                _timed_passes(runner, lambda k: build(k, "traced"),
                              args.seconds - passes[0]["wall_s"], after)
            finally:
                tracer.uninstall()
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed})
            layers = _layer_medians(per_pass)
            # Only the first traced pass has the untraced pass's inputs.
            layers["trace.overhead_s"] = per_pass[0]["trace.wall_s"] - passes[0]["wall_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = _environment(numpy, scipy)
    rmse = [v for p in passes for v in p.get("recovery_rel_rmse", [])]
    figures = {
        "wall_s": _median(passes, "wall_s"),
        "simulate_s": _median(passes, "simulate_s"),
        "identify_s": _median(passes, "identify_s"),
        "check_s": _median(passes, "check_s"),
        "setup_s": setup_s,
        # The resident set creeps up from pass to pass, so it is read after the
        # first pass: more passes in a faster run must not raise it.
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "error_rate": runner.failed / runner.attempted,
    }
    if rmse:
        figures["recovery_rel_rmse"] = statistics.mean(rmse)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(REPORTED)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"commands {runner.attempted}  failed {runner.failed}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in figures.items():
        print(f"  {name:<20} {value:12.6g} {units[name]}")
    if layers is not None:
        print(f"per-layer (traced, {len(per_pass)} passes; tracing overhead "
              f"{layers['trace.overhead_s']:.3f} s on {passes[0]['wall_s']:.3f} s)")
        for name in sorted(layers):
            print(f"  {name:<36} {layers[name]:14.6g} {units[name]}")
        top = max(tracing.LAYERS, key=lambda lay: layers[f"{lay}.self_s"])
        print(f"  largest self time: {top}")

    gated = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layers if args.trace else figures
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in gated}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  smoke=args.smoke, environment=env, figures=figures,
                  layers=layers, layers_per_pass=per_pass, passes=passes)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
