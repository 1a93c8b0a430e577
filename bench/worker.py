"""One benchmark process: set up a workload in a fresh interpreter, then
(unless --setup-only) measure it and print one `RESULT {json}` line.

Started by run.py, which times the interval from spawning this process to
the `READY` line it prints once set-up is done.  Set-up is: the package
import, generating the seeded inputs and an untimed warm-up (one operation
of each family); for cli_readme it is the first, untimed CLI invocation.

    python3 bench/worker.py --workload ode_spectra --seed 1 --seconds 30 --trace 0
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
MIN_OPS = 100


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import monopole_spectra

    if not Path(monopole_spectra.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {monopole_spectra.__file__}, not the package under {SRC}")
    return monopole_spectra


def run_pass(ops: list, tracer=None, pass_id: int = 0):
    """Time each operation and the whole pass; a raising operation fails.
    Latencies are (kind, seconds) pairs."""
    latencies, failures, counts = [], [], Counter()
    start = perf_counter()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            if tracer is None:
                ok, measured = op.run()
            else:
                tracer.op = f"{pass_id}.{i}"
                with tracer.span(f"op.{op.kind}"):
                    ok, measured = op.run()
        except Exception as exc:  # counted as a failed operation
            ok, measured = False, f"{type(exc).__name__}: {exc}"
        latencies.append((op.kind, perf_counter() - t0))
        counts.update(op.counts)
        if not ok:
            failures.append({"kind": op.kind, "measured": measured})
    return perf_counter() - start, latencies, failures, counts


def machine_record(seed: int) -> dict:
    """Hardware, library versions and settings of this run (read-only)."""
    import numpy
    import scipy

    rec = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed,
           "MONOPOLE_SPECTRA_THREADS": os.environ.get("MONOPOLE_SPECTRA_THREADS")}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name"))
    except (OSError, StopIteration):
        rec["cpu"] = None
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}-{kind}"] = size
        except OSError:
            pass
    rec["caches"] = caches
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    rec["blas_threads"] = blas_threads(numpy)
    rec["git_commit"] = git_commit()
    return rec


def blas_threads(numpy) -> int | None:
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for ln in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + ref):
                return ln.split()[0]
    except OSError:
        pass
    return None


def counts_repeat(per_pass: list[Counter]) -> bool:
    return all(c == per_pass[0] for c in per_pass)


def traced_extras(tracer, next_pass, seconds, t_start, results: Path, args) -> dict:
    """Alternate traced and untraced passes (at least two traced, so their
    counters can be compared, and one untraced).  Per-layer counters come
    from the traced passes, tracing overhead from the difference of the two."""
    import monopole_spectra
    from monopole_spectra.errors import ConvergenceFailure

    walls = {"untraced": [], "traced": []}
    latencies, failures, bench_counts, layer_counts, self_times = [], [], [], [], []
    for pass_id in itertools.count():
        mode = "traced" if pass_id % 2 == 0 else "untraced"
        if len(walls["traced"]) >= 2 and walls["untraced"] and (
                perf_counter() - t_start + statistics.median(walls[mode]) > seconds):
            break
        if mode == "traced":
            mark, before = len(tracer.spans), Counter(tracer.counts)
            tracer.install(monopole_spectra)
            try:
                wall, lat, fails, counts = run_pass(next_pass(), tracer, pass_id)
            finally:
                tracer.uninstall()
            layer = Counter(tracer.counts)
            layer.subtract(before)
            layer["spectra.convergence_failures"] = sum(
                s["error"] == ConvergenceFailure.__name__ for s in tracer.spans[mark:]
                if s["name"].startswith("spectra."))
            layer["specfun.checks_failed"] = sum(f["kind"].startswith("specfun.") for f in fails)
            layer["spectra.oracle_failures"] = sum(f["kind"].startswith("spectra.") for f in fails)
            layer_counts.append(layer)
            self_times.append(tracer.self_times(mark))
        else:
            wall, lat, fails, counts = run_pass(next_pass())
        walls[mode].append(wall)
        latencies += lat
        failures += fails
        bench_counts.append(counts)
    tracer.dump(str(results / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    names = sorted({n for st in self_times for n in st})
    return {
        "walls": walls, "latencies": latencies, "failures": failures,
        "bench_counts": bench_counts, "layer_counts": layer_counts,
        "self_ms_per_pass": {n: 1e3 * statistics.median(st[n] for st in self_times)
                             for n in names},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    results = Path(args.results)
    rng = random.Random(args.seed)

    cli_outputs: list = []
    setup_failures = []
    if args.workload == "cli_readme":
        env = wl.cli_env(str(SRC))
        ok, measured = wl.cli_op(*wl.README_COMMANDS[0], env, cli_outputs).run()
        if not ok:
            setup_failures.append({"kind": "setup", "measured": measured})

        def next_pass():
            return wl.cli_pass(rng, env, cli_outputs)
    else:
        import_package()
        build = wl.ode_pass if args.workload == "ode_spectra" else wl.closed_form_pass
        ops = build(rng)
        for op in wl.warmup_ops(ops):
            ok, measured = op.run()
            if not ok:
                setup_failures.append({"kind": op.kind, "measured": measured})

        def next_pass():
            return ops
    print("READY", flush=True)
    if args.setup_only:
        return 0

    t_start = perf_counter()
    out: dict = {"setup_failures": setup_failures}
    if args.trace:
        import probes
        from tracing import Tracer

        import_package()
        tracer = Tracer()
        layer = {}
        layer.update(probes.startup_probes(wl.cli_env(str(SRC))))
        layer.update(probes.cli_probes(str(results / f"cli-out-{os.getpid()}.json")))
        layer.update(probes.spectra_probes(tracer))
        layer.update(probes.algebra_probes())
        layer.update(probes.specfun_probes())
        layer.update(probes.duality_probes())
        defect_counts, out["defects"] = probes.defect_probes()
        extras = traced_extras(tracer, next_pass, args.seconds, t_start, results, args)
        first = extras["layer_counts"][0] + extras["bench_counts"][0]
        for name in ("spectra.eigensolves", "spectra.mesh_points", "fock.reps_built",
                     "fock.dim3_sum", "specfun.grid_points", "duality.identity_points",
                     "cli.subprocesses"):
            layer[name] = first.get(name, 0)
        for name, n in defect_counts.items():
            layer[name] = n + first.get(name, 0)
        walls = extras["walls"]
        layer["trace.overhead_s"] = (statistics.median(walls["traced"])
                                     - statistics.median(walls["untraced"]))
        out.update(layer_metrics=layer, walls=walls, self_ms_per_pass=extras["self_ms_per_pass"],
                   latencies=extras["latencies"], failures=extras["failures"],
                   counts=[dict(c) for c in extras["bench_counts"]],
                   layer_counts=[dict(c) for c in extras["layer_counts"]],
                   counts_repeat=counts_repeat(extras["bench_counts"])
                   and counts_repeat(extras["layer_counts"]))
        out["pass_walls"] = walls["untraced"]
    else:
        walls, latencies, failures, per_pass = [], [], [], []
        while True:
            wall, lat, fails, counts = run_pass(next_pass())
            walls.append(wall)
            latencies += lat
            failures += fails
            per_pass.append(counts)
            if (len(walls) >= MIN_PASSES and len(latencies) >= MIN_OPS
                    and perf_counter() - t_start + statistics.median(walls) > args.seconds):
                break
        out.update(pass_walls=walls, latencies=latencies, failures=failures,
                   counts=[dict(c) for c in per_pass], counts_repeat=counts_repeat(per_pass))

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli_readme" else resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if args.workload == "cli_readme":
        import_package()
        out["output_errors"] = wl.verify_cli_outputs(cli_outputs)
    out["machine"] = machine_record(args.seed)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
