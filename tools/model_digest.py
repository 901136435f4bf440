"""Digest of every model a benchmark workload hands to HiGHS.

    python3 tools/model_digest.py                      # all four workloads
    python3 tools/model_digest.py --workload plan_mm20 --seed 0

Runs each workload of ``benchmarks/workloads.py`` once at ``--seed``, hashes
the ``write_lp`` text of every model passed to ``lp.Model.solve`` (the
min-burn LPs included) and prints one JSON object: per workload, the number
of solves, one SHA-256 over the per-model hashes in solve order, and the
fingerprints of the workload's outputs. A refactor that claims to leave
every model unchanged must print the same object before and after. A
workload that fails its own checks has its problems printed to stderr, and
the exit status is then 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))
sys.path.append(str(ROOT / "benchmarks"))

import workloads  # noqa: E402
from oosplan import lp  # noqa: E402


def install(model_hashes: list[str], workdir: Path):
    """Hash the LP text of each model before it is solved."""
    solve = lp.Model.solve

    def hashed(model, *args, **kwargs):
        path = workdir / "model.lp"
        model.write_lp(path)
        model_hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        return solve(model, *args, **kwargs)
    lp.Model.solve = hashed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=tuple(workloads.WORKLOADS),
                   help="repeatable; default every workload")
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 gives the reference inputs")
    args = p.parse_args(argv)

    report = {}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model_hashes: list[str] = []
        install(model_hashes, tmp)
        solves = workloads.SolveLog()
        solves.install()
        for name in args.workload or workloads.WORKLOADS:
            workdir = tmp / name
            outdir = workdir / "out"
            outdir.mkdir(parents=True)
            model_hashes.clear()
            solves.calls.clear()
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
                "lp_digest": hashlib.sha256(
                    "\n".join(model_hashes).encode()).hexdigest(),
                "fingerprints": res.fingerprints}
    print(json.dumps({"seed": args.seed, "workloads": report}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
