"""Digest of every model a benchmark workload hands to HiGHS.

    python3 tools/model_digest.py                      # all four workloads
    python3 tools/model_digest.py --workload plan_mm20 --seed 0
    python3 tools/model_digest.py --replay             # HiGHS's path spread

Runs each workload of ``benchmarks/workloads.py`` once at ``--seed`` and
prints one JSON object: per workload, the number of solves, three digests,
the size of the models and HiGHS's work on them, the ``repr`` of every
``PlanProblem.solve`` objective in solve order (``objectives``) and the
fingerprints of the workload's outputs. ``model`` sums over every model
passed to ``lp.Model.solve`` its columns per key tag (a tuple key's first
item) and its rows and nonzeros per row family; ``highs`` counts the calls
of ``lp.milp`` and sums the simplex iterations and branch-and-bound nodes
that the solves report (``SolveResult.iterations`` and ``nodes``, an LP's
nodes read as 0).
``lp_digest`` hashes the ``write_lp`` text of every model passed to
``lp.Model.solve`` (the min-burn LPs included); ``highs_digest`` hashes every
argument handed to ``lp.milp``, each array with its dtype and shape, so it
covers the arrays HiGHS gets rather than their text form. ``audit_digest``
hashes the violations (family, key and ``repr`` of the residual, in order)
that ``milp.audit`` returns for each solved plan, on its values and on
``PERTURBATIONS`` copies of them with one or two values moved, drawn from
the plan's position in solve order. Each digest is one SHA-256 over the
per-solve hashes in solve order. A refactor that claims to leave every model
and the audit unchanged must print the same object before and after; one
that changes models but claims to keep every optimum must print the same
``objectives`` and fingerprints. A workload that fails its own checks has
its problems printed to stderr, and the exit status is then 1.
Every function the tool wraps is restored when ``main`` returns.

``--replay`` prints another object instead. It captures the arguments of
every ``lp.milp`` call of one run of each workload at ``--seed``, then hands
each captured call to HiGHS again under each ``random_seed`` of
``REPLAY_SEEDS``, set only for those replays. Per workload it gives the
number of calls and of MILPs among them; the median, least and greatest
over the seeds of HiGHS's summed time (seconds around each ``lp.milp``
call, which the machine's load moves) and of its summed simplex iterations;
and ``ties``, the number of MILPs whose integer decisions are not the same
under every seed. Seed 0 is HiGHS's default, the path a workload takes. A
model change that moves HiGHS onto another path moves its time within this
spread, so a claim from a model change reports both sides' replays; the
iterations and tie counts repeat from run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))
sys.path.append(str(ROOT / "benchmarks"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from oosplan import lp, milp  # noqa: E402


def highs_hash(args: tuple, kwargs: dict) -> str:
    """SHA-256 of one ``lp.milp`` call: every argument in order, an array
    as its dtype, shape and bytes, anything else as its ``repr``."""
    h = hashlib.sha256()
    for label, arg in list(enumerate(args)) + sorted(kwargs.items()):
        h.update(f"{label}=".encode())
        if isinstance(arg, np.ndarray):
            h.update(f"{arg.dtype.str}{arg.shape}".encode())
            h.update(np.ascontiguousarray(arg).tobytes())
        else:
            h.update(repr(arg).encode())
        h.update(b"\0")
    return h.hexdigest()


# the perturbed copies of a plan's values that ``audit_hash`` audits, and
# what a perturbation does to a value: move it by one of these, or (None)
# set it to 0
PERTURBATIONS = 4
SHIFTS = (1.0, -1.0, 0.5, -0.5, 100.0, None)


def perturbed(values: dict, rng: np.random.Generator) -> dict:
    """``values`` with one or two of them moved by a shift of ``SHIFTS``."""
    keys = list(values)
    out = dict(values)
    for n in rng.choice(len(keys), size=min(len(keys),
                                            int(rng.integers(1, 3))),
                        replace=False):
        shift = SHIFTS[int(rng.integers(len(SHIFTS)))]
        key = keys[int(n)]
        out[key] = 0.0 if shift is None else out[key] + shift
    return out


def audit_hash(problem, values: dict, seed: int) -> str:
    """SHA-256 of the violations ``milp.audit`` finds on ``values`` and on
    ``PERTURBATIONS`` perturbed copies drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for copy in (values, *(perturbed(values, rng)
                           for _ in range(PERTURBATIONS))):
        for v in milp.audit(problem, copy):
            h.update(f"{v.family}|{v.key}|{v.residual!r}\n".encode())
        h.update(b"\0")
    return h.hexdigest()


def new_sizes() -> dict[str, Counter]:
    return {"columns": Counter(), "rows": Counter(), "nonzeros": Counter()}


def new_work() -> dict[str, int]:
    return {"calls": 0, "iterations": 0, "nodes": 0}


def install(model_hashes: list[str], highs_hashes: list[str],
            objectives: list[str], audit_hashes: list[str], workdir: Path,
            sizes: dict, work: dict):
    """Hash the LP text of each model before it is solved and the
    arguments of each HiGHS call, log each plan's objective, and hash the
    audit of each solved plan; add each solved model's size to ``sizes``
    and HiGHS's work to ``work``."""
    solve, highs_milp = lp.Model.solve, lp.milp
    plan_solve = milp.PlanProblem.solve

    def hashed(model, *args, **kwargs):
        path = workdir / "model.lp"
        model.write_lp(path)
        model_hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        sizes["columns"].update(key[0] if isinstance(key, tuple)
                                else str(key) for key in model.keys)
        for con in model.constraints:
            sizes["rows"][con.name] += 1
            sizes["nonzeros"][con.name] += sum(
                v != 0.0 for v in con.coeffs.values())
        res = solve(model, *args, **kwargs)
        work["iterations"] += res.iterations or 0
        work["nodes"] += res.nodes or 0
        return res

    def hashed_milp(*args, **kwargs):
        highs_hashes.append(highs_hash(args, kwargs))
        work["calls"] += 1
        return highs_milp(*args, **kwargs)

    def logged_plan(problem):
        sol = plan_solve(problem)
        objectives.append(repr(sol.objective))
        if sol.values:
            audit_hashes.append(audit_hash(problem, sol.values,
                                           len(audit_hashes)))
        return sol
    lp.Model.solve = hashed
    lp.milp = hashed_milp
    milp.PlanProblem.solve = logged_plan


REPLAY_SEEDS = range(10)         # HiGHS's ``random_seed`` in the replays


def capture_calls(name: str, seed: int, workdir: Path) -> list:
    """The (args, kwargs) of every ``lp.milp`` call, in call order, of one
    run of workload ``name`` at ``seed`` in ``workdir``."""
    calls = []
    highs_milp = lp.milp

    def captured(*args, **kwargs):
        calls.append((args, kwargs))
        return highs_milp(*args, **kwargs)
    lp.milp = captured
    try:
        (workdir / "out").mkdir(parents=True)
        # the program's own output would corrupt the JSON on stdout
        with contextlib.redirect_stdout(sys.stderr):
            inputs = workloads.setup(name, seed, workdir)
            workloads.run_rep(name, inputs, workdir / "out")
    finally:
        lp.milp = highs_milp
    return calls


def _spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def replay(calls: list, seeds=REPLAY_SEEDS) -> dict:
    """HiGHS's summed time and simplex iterations over ``calls`` under each
    of ``seeds`` as its ``random_seed``, and how many MILPs among them
    change their integer decisions across the seeds (``ties``)."""
    # integrality is ``lp.milp``'s ninth argument
    ints = [np.asarray(args[8]) == 1 for args, _ in calls]
    decisions = [set() for _ in calls]
    seconds, iterations = [], []
    options = dict(lp.HIGHS_OPTIONS)
    try:
        for seed in seeds:
            lp.HIGHS_OPTIONS["random_seed"] = seed
            spent = iters = 0
            for (args, kwargs), mask, seen in zip(calls, ints, decisions):
                began = time.perf_counter()
                res = lp.milp(*args, **kwargs)
                spent += time.perf_counter() - began
                iters += res.simplex_iteration_count or 0
                # as integers, so that -0.0 and 0.0 are one decision
                seen.add(None if res.x is None else
                         np.rint(res.x[mask]).astype(np.int64).tobytes())
            seconds.append(spent)
            iterations.append(iters)
    finally:
        lp.HIGHS_OPTIONS.clear()
        lp.HIGHS_OPTIONS.update(options)
    return {"calls": len(calls), "milps": sum(bool(m.any()) for m in ints),
            "highs_s": {k: round(v, 4) for k, v in _spread(seconds).items()},
            "iterations": _spread(iterations),
            "ties": sum(len(seen) > 1
                        for mask, seen in zip(ints, decisions)
                        if mask.any())}


def _digest(hashes: list[str]) -> str:
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=tuple(workloads.WORKLOADS),
                   help="repeatable; default every workload")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 gives the reference inputs")
    p.add_argument("--replay", action="store_true",
                   help="replay each workload's HiGHS calls under HiGHS's "
                        "random seeds 0-9 instead of printing digests")
    args = p.parse_args(argv)
    if args.replay:
        report = {}
        with tempfile.TemporaryDirectory() as tmp:
            for name in args.workload or workloads.WORKLOADS:
                report[name] = replay(capture_calls(name, args.seed,
                                                    Path(tmp) / name))
        print(json.dumps({"seed": args.seed,
                          "random_seeds": list(REPLAY_SEEDS),
                          "workloads": report}, indent=1))
        return 0

    originals = (lp.Model.solve, lp.milp, milp.PlanProblem.solve)
    try:
        report, failed = _run(args)
    finally:
        lp.Model.solve, lp.milp, milp.PlanProblem.solve = originals
    print(json.dumps({"seed": args.seed, "workloads": report}, indent=1))
    return 1 if failed else 0


def _run(args) -> tuple[dict, bool]:
    """The report per workload, and whether a workload failed its checks."""
    report = {}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model_hashes: list[str] = []
        highs_hashes: list[str] = []
        objectives: list[str] = []
        audit_hashes: list[str] = []
        sizes, work = new_sizes(), new_work()
        install(model_hashes, highs_hashes, objectives, audit_hashes, tmp,
                sizes, work)
        solves = workloads.SolveLog()
        solves.install()
        for name in args.workload or workloads.WORKLOADS:
            workdir = tmp / name
            outdir = workdir / "out"
            outdir.mkdir(parents=True)
            model_hashes.clear()
            highs_hashes.clear()
            objectives.clear()
            audit_hashes.clear()
            solves.calls.clear()
            sizes.update(new_sizes())
            work.update(new_work())
            # the program's own output would corrupt the JSON on stdout
            with contextlib.redirect_stdout(sys.stderr):
                inputs = workloads.setup(name, args.seed, workdir)
                returned = workloads.run_rep(name, inputs, outdir)
                res = workloads.check(name, inputs, outdir, returned,
                                      list(solves.calls))
            if res.failed or res.problems:
                failed = True
                print(f"{name}: {res.failed} of {res.attempted} operations "
                      f"failed", file=sys.stderr)
                for problem in res.problems:
                    print(f"{name}: {problem}", file=sys.stderr)
            report[name] = {
                "solves": len(model_hashes),
                "lp_digest": _digest(model_hashes),
                "highs_digest": _digest(highs_hashes),
                "audit_digest": _digest(audit_hashes),
                "model": {part: dict(sorted(counts.items()))
                          for part, counts in sizes.items()},
                "highs": dict(work),
                "objectives": list(objectives),
                "fingerprints": res.fingerprints}
    return report, failed


if __name__ == "__main__":
    sys.exit(main())
