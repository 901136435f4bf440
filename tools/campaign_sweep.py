"""Run one-year campaigns over demand seeds, scenarios and catalogs.

    python3 tools/campaign_sweep.py

Runs ``oosplan campaign --horizon-days 360`` for demand seeds 1-8, for each
shipped scenario (``high_thrust``, ``multimodal``, ``low_thrust``), on the
benchmark's two catalogs: ``five`` (the five satellites of ``campaign_mm5``)
and ``twenty`` (the twenty of ``campaign_ht20``). Each run is a fresh
process on this checkout's ``src``, one per CPU at a time
(``os.cpu_count()``). For each, in run order, it prints one line: the exit
code, the SHA-256 of ``ledger.csv`` and ``events.json`` (``-`` for a file
not written) and the first error line on stderr (the first line starting
with ``error``, else the last line, which ends a traceback). A run whose
standard output holds a line that the CLI does not print itself (its
``campaign: value=…`` and ``outputs in …/`` lines) gets ` stdout=<line>`
appended, with the first such line. The exit status is 1 if any run exits
non-zero. The 48 runs take about 2.5 minutes.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmarks"))

from workloads import FIVE_SATS, TWENTY_SATS  # noqa: E402

SEEDS = range(1, 9)
SCENARIOS = ("high_thrust", "multimodal", "low_thrust")
CATALOGS = {"five": FIVE_SATS, "twenty": TWENTY_SATS}
OUTPUTS = ("ledger.csv", "events.json")
CLI_STDOUT = ("campaign: value=", "outputs in ")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() \
        else "-"


def _first_error(stderr: str) -> str:
    lines = [line for line in stderr.splitlines() if line.strip()]
    for line in lines:
        if line.startswith("error"):
            return line
    return lines[-1] if lines else ""


def _stray_line(stdout: str) -> str:
    return next((line for line in stdout.splitlines()
                 if not line.startswith(CLI_STDOUT)), "")


def run_one(scenario: str, catalog: Path, seed: int, out: Path) -> tuple:
    """Exit code, output digests, first error line and first stray
    standard-output line of one campaign."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "oosplan.cli", "campaign",
         "--scenario", scenario, "--catalog", str(catalog),
         "--seed", str(seed), "--horizon-days", "360", "--out", str(out)],
        capture_output=True, text=True, env=env)
    return (proc.returncode, *(_sha256(out / name) for name in OUTPUTS),
            _first_error(proc.stderr) if proc.returncode else "",
            _stray_line(proc.stdout))


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        catalogs = {}
        for name, sats in CATALOGS.items():
            catalogs[name] = tmp / f"{name}.csv"
            with catalogs[name].open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["name", "longitude_deg"])
                w.writerows(sats)
        runs = list(itertools.product(SCENARIOS, CATALOGS, SEEDS))
        args = [(scenario, catalogs[catalog], seed, tmp / f"run{k}")
                for k, (scenario, catalog, seed) in enumerate(runs)]
        # each thread waits on its campaign's process; map keeps run order
        with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
            for (scenario, catalog, seed), result in zip(
                    runs, pool.map(lambda a: run_one(*a), args)):
                code, ledger, events, error, stray = result
                failed += code != 0
                print(f"{scenario} {catalog} seed={seed} exit={code} "
                      f"ledger={ledger} events={events} error={error}"
                      + (f" stdout={stray}" if stray else ""), flush=True)
    print(f"{failed} of {len(runs)} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
