"""Benchmark of the monopole-spectra package: one workload per run.

    python3 bench/run.py --workload {cli_readme,ode_spectra,closed_form} \\
        --seed N --seconds S --trace {0,1}

All three workloads, untraced:

    for w in cli_readme ode_spectra closed_form; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy.  Each workload is a closed loop with
one client: a single process (bench/worker.py) issues the next operation
when the previous one has finished.  The run sets the workload up SETUPS
times, each in a fresh interpreter, and measures in the last one.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics instead, from layer probes and traced passes (see
bench/layers.json for which end-to-end metric each one should move).  Lines
before it print every metric by name with its unit, plus the error rate,
the per-pass work counters and the sample counts.  A run record and, for
traced runs, the span log go to bench/results/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_readme", "ode_spectra", "closed_form")
SETUPS = 5
RUN_LIMIT_S = 170


def fail(msg: str) -> int:
    print(f"benchmark error: {msg}", file=sys.stderr)
    return 2


def start_worker(args, results: Path, setup_only: bool):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--results", str(results)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready = proc.stdout.readline().strip() == "READY"
    return proc, perf_counter() - t0, ready


def finish(proc, deadline: float) -> tuple[int, str]:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -1, ""
    return proc.returncode, out


def end_to_end(res: dict, setups: list[float]) -> dict:
    lat_ms = [1e3 * t for _, t in res["latencies"]]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(res["pass_walls"]), "s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (deciles[8], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def op_ms_by_kind(latencies: list) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, t in latencies:
        by_kind.setdefault(kind, []).append(1e3 * t)
    return {k: {"median": statistics.median(v), "n": len(v)} for k, v in sorted(by_kind.items())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = perf_counter()
    deadline = t_start + RUN_LIMIT_S

    if not (ROOT / "src" / "monopole_spectra" / "__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'monopole_spectra'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer_map = json.loads((BENCH / "layers.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read the benchmark definition: {exc}")
    declared = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)

    setups = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        proc, setup_s, ready = start_worker(args, results, setup_only=not last)
        if not ready:
            finish(proc, deadline)
            return fail(f"set-up {i + 1} did not reach READY")
        setups.append(setup_s)
        if not last:
            code, _ = finish(proc, deadline)
            if code != 0:
                return fail(f"set-up-only worker exited with {code}")
    code, out = finish(proc, deadline)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if code != 0 or not lines:
        return fail(f"worker exited with {code} and no result")
    res = json.loads(lines[-1][len("RESULT "):])

    attempted = len(res["latencies"])
    failures = res["failures"] + res["setup_failures"]
    problems = [f"{f['kind']}: {f['measured']}" for f in failures[:10]]
    problems += res.get("output_errors", [])
    if not res["counts_repeat"]:
        problems.append("work counters differ between passes of one seed")

    if args.trace == 0:
        values = end_to_end(res, setups)
    else:
        values = {k: (v, units.get(k, "")) for k, v in res["layer_metrics"].items()}
    if sorted(values) != sorted(declared):
        return fail(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    if args.trace and sorted(layer_map) != sorted(declared):
        return fail("bench/layers.json does not map every per-layer metric")

    walls = res["pass_walls"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{attempted} operations in {len(walls)} untraced passes "
          f"(+{len(res['walls']['traced']) if args.trace else 0} traced)")
    for name in declared:
        value, unit = values[name]
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<40} {len(res['failures']) / attempted:>14.6g} "
          f"failed/attempted ({len(res['failures'])} of {attempted})")
    if args.trace == 0:
        print(f"  setup_s: median of {SETUPS} set-ups {[round(s, 4) for s in setups]}; "
              f"op_ms_p50/p90 over {attempted} operations; wall_s median of {len(walls)} passes")
    else:
        print(f"  tracing overhead (traced - untraced wall_s): "
              f"{values['trace.overhead_s'][0]:.6g} s")
        for name, ms in sorted(res["self_ms_per_pass"].items()):
            if not name.startswith("op."):
                print(f"  self time per traced pass  {name:<40} {ms:>12.4f} ms")
        for d in res["defects"]:
            print(f"  known-defect probe {'FAIL' if d['failed'] else 'pass'}: {d['probe']}")
    print(f"  work counters per pass: {res['counts'][0]}")
    for p in problems:
        print(f"  FAILED {p}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setups,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
              "error_rate": len(res["failures"]) / attempted, "problems": problems,
              "op_ms_by_kind": op_ms_by_kind(res["latencies"]),
              **{k: v for k, v in res.items() if k != "latencies"}}
    (results / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
