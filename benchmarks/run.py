"""oosplan benchmark: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload campaign_mm5 --seed 0 --trace 0
    python3 benchmarks/run.py --workload all

Run from anywhere inside a checkout of the repository; the program is imported
from ``src/`` of the same checkout and nothing is installed. ``--trace 0``
repeats the workload until ``--seconds`` have passed (at least once) and
reports the end-to-end metrics as medians over the repetitions. ``--trace 1``
runs the workload once untraced and once traced and reports the per-layer
metrics, with the tracing overhead as the difference of the two wall times.
``--workload all`` runs every workload in its own fresh process, one after
another, and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything the program
itself prints goes to standard error. Outputs, fingerprints and spans of a
run are kept under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("campaign_mm5", "plan_mm20", "oracle_micro50",
                  "campaign_ht20")
SETUP_REPEATS = 3
# the import of the program, timed in a fresh interpreter for each set-up
IMPORT_PROBE = ("import time; t = time.perf_counter(); import oosplan.cli; "
                "print(time.perf_counter() - t)")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "profit_musd": "MUSD",
                    "ok_ratio": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 gives the reference inputs")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="measure for this long (untraced runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric == "lp.gap_max":
        return "ratio"
    return "count"


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out) -> int:
    # imported here, once sys.path holds the checkout's src/ and tests/
    import spans
    import workloads

    workdir = OUT / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = perf_counter()
        inputs = workloads.setup(name, seed, workdir)
        setups.append(t_import + perf_counter() - t0)

    solves = workloads.SolveLog()
    solves.install()
    reps = []

    def rep(tracer=None):
        outdir = workdir / f"rep{len(reps)}"
        outdir.mkdir()
        solves.calls.clear()
        gc.collect()
        w0, c0 = perf_counter(), process_time()
        if tracer is None:
            returned = workloads.run_rep(name, inputs, outdir)
        else:
            returned = tracer.root(f"{name}/seed{seed}/rep{len(reps)}",
                                   workloads.run_rep, name, inputs, outdir)
        wall, cpu = perf_counter() - w0, process_time() - c0
        res = workloads.check(name, inputs, outdir, returned,
                              list(solves.calls))
        reps.append({"wall_s": wall, "cpu_s": cpu, "traced": bool(tracer),
                     "attempted": res.attempted, "failed": res.failed,
                     "profit_musd": res.profit_musd,
                     "fingerprints": res.fingerprints,
                     "problems": res.problems[:20]})

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "setup_s": setups}
    start = perf_counter()
    rep()
    if traced:
        tracer = spans.Tracer()
        tracer.install()
        rep(tracer)
        problems = tracer.check()
        metrics = tracer.metrics()
        root = [s for s in tracer.spans if s[0] == "run"][-1]
        metrics["trace.wall_s"] = root[2] - root[1]
        metrics["trace.overhead_s"] = \
            metrics["trace.wall_s"] - reps[0]["wall_s"]
        record.update(trace_problems=problems, spans=tracer.record(),
                      step_objectives=tracer.step_objectives,
                      census_unreadable=tracer.census_unreadable)
    else:
        while perf_counter() - start < seconds:
            rep()
        problems = []
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "profit_musd": statistics.median(r["profit_musd"] for r in reps),
        }

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if not traced:
        metrics["ok_ratio"] = (attempted - failed) / attempted
    record.update(reps=reps, metrics=metrics)
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    first = reps[0]["fingerprints"]
    summary = {"workload": name, "seed": seed, "reps": len(reps),
               "fail_ratio": failed / attempted, "fingerprints": first,
               "repeats_identical": all(r["fingerprints"] == first
                                        for r in reps)}
    if traced:
        summary["step_objectives"] = tracer.step_objectives
        summary["trace_check"] = problems or "ok"
    print(json.dumps(summary), file=out)
    for r in reps:
        for msg in r["problems"]:
            print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }), file=out)
    out.flush()
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to one only."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, "fail_ratio",
                     result["failed"] / result["attempted"], "ratio"))
        rows += [(name, k, m["value"], m["unit"])
                 for k, m in result["metrics"].items()]
    for row in rows:
        print("{:<16} {:<28} {:>20.10g} {}".format(
            *row[:2], float("nan") if row[2] is None else row[2], row[3]))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not ((SRC / "oosplan").is_dir()
            and (TESTS / "enum_oracle.py").is_file()):
        print(f"error: {ROOT} holds no oosplan checkout (src/oosplan and "
              f"tests/enum_oracle.py)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Solvers write to file descriptor 1 directly; keep that on stderr so
    # the result stays the last line of standard output.
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.path.insert(0, str(SRC))
    sys.path.append(str(TESTS))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), out)


if __name__ == "__main__":
    sys.exit(main())
