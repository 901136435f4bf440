"""Alternated benchmark pairs of two checkouts, for a speed claim.

    python3 tools/ab_pairs.py --parent ../parent --workload campaign_ht20 \
        --pairs 10 --seconds 15

Clears ``__pycache__`` in both checkouts, then runs
``benchmarks/run.py --workload W --seed i --seconds S`` in the parent and in
the change (``--change``, by default the checkout that holds this tool) for
each seed ``i`` from 1 to ``--pairs``, the parent first on odd seeds and the
change first on even ones, so that a drift of the machine's speed over the
runs falls on both alike. Prints each pair's end-to-end metrics, then per
metric the two medians, the quartiles of each side (linear interpolation,
as ``numpy.percentile``) and in how many pairs the change was better, in
the direction that ``BENCHMARK.json`` gives. Exits 1 if a run is not
``correct`` or gives no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def clear_pycache(checkout: Path):
    """Remove every ``__pycache__`` directory under ``checkout``."""
    for cache in sorted(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_benchmark(checkout: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    """The result line of one ``benchmarks/run.py`` run in ``checkout``;
    ``{}`` where it printed none."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


def order(seed: int) -> tuple[str, str]:
    """Which side runs first for ``seed``: the parent on odd seeds."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict[str, dict]],
              better: dict[str, str]) -> dict[str, dict]:
    """Per metric of ``better`` ("lower" or "higher" is better): each
    side's median and quartiles over ``pairs`` (one ``{"parent": metrics,
    "change": metrics}`` per seed), and the pairs in which the change was
    better. A metric missing from a run is left out of that pair."""
    out = {}
    for name, direction in better.items():
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent, change = ([b[n] for b in both] for n in (0, 1))
        wins = sum(c < p if direction == "lower" else c > p
                   for p, c in both)
        out[name] = {"pairs": len(both),
                     "parent_median": statistics.median(parent),
                     "change_median": statistics.median(change),
                     "parent_quartiles": quartiles(parent),
                     "change_quartiles": quartiles(change),
                     "change_better": wins}
    return out


def metrics(result: dict) -> dict[str, float]:
    return {k: m["value"] for k, m in result.get("metrics", {}).items()}


def main(argv=None, run=run_benchmark) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="checkout of the parent commit")
    p.add_argument("--change", type=Path, default=ROOT,
                   help="checkout of the change (default: this one)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10,
                   help="seeds 1 to this, one pair each")
    p.add_argument("--seconds", type=float, default=15.0)
    args = p.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for checkout in checkouts.values():
        clear_pycache(checkout)

    pairs, failed = [], False
    for seed in range(1, args.pairs + 1):
        pair = {}
        for side in order(seed):
            result = run(checkouts[side], args.workload, seed, args.seconds)
            if not result.get("correct"):
                failed = True
                print(f"seed {seed} {side}: not correct", file=sys.stderr)
            pair[side] = metrics(result)
        pairs.append(pair)
        print(f"seed {seed:>2} ({order(seed)[0]} first)")
        for side in ("parent", "change"):
            print(f"  {side:<6} " + "  ".join(
                f"{k}={v:.6g}" for k, v in pair[side].items()))

    print(f"{args.workload}: {len(pairs)} pairs")
    for name, s in summarize(pairs, better).items():
        (p1, p3), (c1, c3) = s["parent_quartiles"], s["change_quartiles"]
        print(f"  {name:<12} parent {s['parent_median']:.6g} "
              f"[{p1:.6g}, {p3:.6g}]  change {s['change_median']:.6g} "
              f"[{c1:.6g}, {c3:.6g}]  change better in "
              f"{s['change_better']}/{s['pairs']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
