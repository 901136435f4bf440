"""Generic mixed-integer linear model container with pluggable solving.

Holds variables indexed by hashable keys, linear constraints tagged with their
family name, and a maximize objective; solves in-process through scipy's HiGHS
interface, or through any external solver via LP-file export and a plain
``variable value`` solution file with an optional ``status`` line. Display
names are formatted only for export and error messages.
"""

from __future__ import annotations

import math
import re
import shlex
import subprocess
import tempfile
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

CONTINUOUS = "cont"
INTEGER = "int"
BINARY = "bin"

_STATUS = {0: "optimal", 1: "time-limit", 2: "infeasible", 3: "unbounded"}


class SolveError(Exception):
    pass


def col_name(key: Hashable) -> str:
    """Display name of a column: ``tag[a|b|...]`` for a tuple key."""
    if isinstance(key, tuple):
        return key[0] + "[" + "|".join(map(str, key[1:])) + "]"
    return str(key)


@dataclass
class Constraint:
    name: str                   # constraint family
    coeffs: dict[int, float]
    sense: str                  # "<=", ">=", "=="
    rhs: float


@dataclass
class SolveResult:
    # optimal | time-limit | infeasible | unbounded, or unknown where an
    # external backend states none
    status: str
    objective: Optional[float]
    values: dict[Hashable, float]
    gap: Optional[float] = None
    dual_bound: Optional[float] = None  # best bound on the objective (HiGHS)
    nodes: Optional[int] = None         # branch-and-bound nodes (HiGHS)

    @property
    def feasible(self) -> bool:
        """A solution came back (an optimum or a stopped search's incumbent)."""
        return self.objective is not None


class Model:
    """A MILP in maximize form."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.var_lb: list[float] = []
        self.var_ub: list[float] = []
        self.var_kind: list[str] = []
        self._index: dict[Hashable, int] = {}     # key -> column, in order
        self.objective: dict[int, float] = {}
        self.constraints: list[Constraint] = []

    def add_var(self, key: Hashable, lb: float = 0.0, ub: float = math.inf,
                kind: str = CONTINUOUS) -> int:
        if key in self._index:
            raise ValueError(f"duplicate variable {col_name(key)!r}")
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        idx = len(self._index)
        self.var_lb.append(lb)
        self.var_ub.append(ub)
        self.var_kind.append(kind)
        self._index[key] = idx
        return idx

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def index(self, key: Hashable) -> int:
        return self._index[key]

    @property
    def keys(self):
        """Column keys, in column order."""
        return self._index.keys()

    @property
    def var_names(self) -> list[str]:
        """Display names of the columns, in column order."""
        return [col_name(k) for k in self.keys]

    def fix(self, idx: int, value: float):
        self.var_lb[idx] = value
        self.var_ub[idx] = value

    def fixed_lp(self, values: dict[Hashable, float],
                 objective: dict[int, float]) -> Model:
        """An LP copy of this model: every integer column fixed at its
        rounded value in ``values``, and ``objective`` maximized. This model
        is left as it is."""
        lp = Model(self.name + "-fixed")
        lp._index = dict(self._index)
        lp.var_lb, lp.var_ub = list(self.var_lb), list(self.var_ub)
        lp.var_kind = [CONTINUOUS] * self.n_vars
        for j, (key, kind) in enumerate(zip(self.keys, self.var_kind)):
            if kind != CONTINUOUS:
                lp.fix(j, float(round(values.get(key, 0.0))))
        lp.objective = dict(objective)
        lp.constraints = list(self.constraints)
        return lp

    def add_objective(self, idx: int, coeff: float):
        self.objective[idx] = self.objective.get(idx, 0.0) + coeff

    def add_constr(self, name: str, coeffs: dict[int, float], sense: str,
                   rhs: float):
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        self.constraints.append(Constraint(name, dict(coeffs), sense, rhs))

    @property
    def n_vars(self) -> int:
        return len(self._index)

    def solve(self, gap: float = 0.0, time_limit: Optional[float] = None) -> SolveResult:
        """Solve with HiGHS (scipy.optimize.milp)."""
        n = self.n_vars
        c = np.zeros(n)
        for idx, coeff in self.objective.items():
            c[idx] = -coeff     # scipy minimizes
        integrality = np.array(
            [0 if k == CONTINUOUS else 1 for k in self.var_kind])
        bounds = Bounds(np.array(self.var_lb), np.array(self.var_ub))
        constraints = []
        if self.constraints:
            rows, cols, data, lo, hi = [], [], [], [], []
            for ri, con in enumerate(self.constraints):
                for idx, coeff in con.coeffs.items():
                    if coeff != 0.0:
                        rows.append(ri)
                        cols.append(idx)
                        data.append(coeff)
                if con.sense == "<=":
                    lo.append(-np.inf); hi.append(con.rhs)
                elif con.sense == ">=":
                    lo.append(con.rhs); hi.append(np.inf)
                else:
                    lo.append(con.rhs); hi.append(con.rhs)
            a = sparse.csr_matrix((data, (rows, cols)),
                                  shape=(len(self.constraints), n))
            constraints = [LinearConstraint(a, lo, hi)]
        options = {"mip_rel_gap": gap}
        if time_limit is not None:
            options["time_limit"] = time_limit
        res = milp(c=c, constraints=constraints, integrality=integrality,
                   bounds=bounds, options=options)
        status = _STATUS.get(res.status, "error")
        if status == "error":
            raise SolveError(f"solver failure: {res.message}")
        bound = getattr(res, "mip_dual_bound", None)
        stats = dict(gap=getattr(res, "mip_gap", None),
                     dual_bound=None if bound is None else -float(bound),
                     nodes=getattr(res, "mip_node_count", None))
        if res.x is None:
            return SolveResult(status=status, objective=None, values={},
                               **stats)
        values = dict(zip(self.keys, res.x.tolist()))
        return SolveResult(status=status, objective=float(-res.fun),
                           values=values, **stats)

    # -- LP text format ----------------------------------------------------

    def write_lp(self, path: str | Path):
        """Write the model in CPLEX LP format.

        Column ``j`` is named ``x<j>_`` plus its sanitized display name, so
        names stay distinct even where sanitizing merges two display names;
        row ``i`` is named ``c<i>_<family>``.
        """
        names = [f"x{j}_{_sanitize(col_name(k))}"
                 for j, k in enumerate(self.keys)]
        lines = ["\\ " + self.name, "Maximize",
                 " obj: " + _expr(self.objective, names)]
        lines.append("Subject To")
        for i, con in enumerate(self.constraints):
            sense = {"<=": "<=", ">=": ">=", "==": "="}[con.sense]
            lines.append(f" c{i}_{_sanitize(con.name)}: "
                         + _expr(con.coeffs, names)
                         + f" {sense} {con.rhs:.17g}")
        lines.append("Bounds")
        for idx, nm in enumerate(names):
            lb, ub = self.var_lb[idx], self.var_ub[idx]
            if math.isinf(ub):
                lines.append(f" {lb:.17g} <= {nm}")
            else:
                lines.append(f" {lb:.17g} <= {nm} <= {ub:.17g}")
        generals = [i for i, k in enumerate(self.var_kind) if k != CONTINUOUS]
        if generals:
            lines.append("Generals")
            for idx in generals:
                lines.append(" " + names[idx])
        lines.append("End")
        Path(path).write_text("\n".join(lines) + "\n")

    def solve_subprocess(self, command: str,
                         gap: float = 0.0) -> SolveResult:
        """Solve via an external command.

        The command receives ``{lp}`` and ``{sol}`` placeholders; the solution
        file must contain ``variable_name value`` lines, and may carry one
        ``status <s>`` line (see ``_read_status``). Without it the status is
        ``"unknown"``; an infeasible or unbounded file carries no solution.
        """
        with tempfile.TemporaryDirectory() as tmp:
            lp = Path(tmp) / "model.lp"
            sol = Path(tmp) / "model.sol"
            self.write_lp(lp)
            cmd = command.format(lp=lp, sol=sol)
            proc = subprocess.run(shlex.split(cmd), capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                raise SolveError(
                    f"backend command failed ({proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}")
            if not sol.exists():
                raise SolveError("backend produced no solution file")
            status = _read_status(sol)
            if status in ("infeasible", "unbounded"):
                return SolveResult(status=status, objective=None, values={})
            keys = list(self.keys)
            values = read_solution(sol, keys)
        obj = sum(coeff * values[keys[idx]]
                  for idx, coeff in self.objective.items())
        return SolveResult(status=status, objective=obj, values=values)


_SOL_LINE = re.compile(r"x(\d+)_\S*\s+(\S+)")
_STATUS_LINE = re.compile(r"status\s+(\S+)")


def _read_status(path: str | Path) -> str:
    """The solver status a solution file states on a ``status <s>`` line,
    one of the ``SolveResult`` statuses; ``"unknown"`` if it states none."""
    for line in Path(path).read_text().splitlines():
        m = _STATUS_LINE.fullmatch(line.strip())
        if m and m.group(1) in _STATUS.values():
            return m.group(1)
    return "unknown"


def read_solution(path: str | Path,
                  keys: list[Hashable]) -> dict[Hashable, float]:
    """Parse a ``variable_name value`` solution file for a written LP.

    Column ``x<j>_...`` maps to ``keys[j]``; columns the file omits are 0 and
    lines that name no column are skipped.
    """
    x = [0.0] * len(keys)
    for line in Path(path).read_text().splitlines():
        m = _SOL_LINE.fullmatch(line.strip())
        if m:
            j = int(m.group(1))
            if j >= len(keys):
                raise SolveError(f"solution names column {j} of a "
                                 f"{len(keys)}-column model")
            x[j] = float(m.group(2))
    return dict(zip(keys, x))


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.]", "_", name)


def _expr(coeffs: dict[int, float], names: list[str]) -> str:
    terms = []
    for idx in sorted(coeffs):
        coeff = coeffs[idx]
        if coeff == 0.0:
            continue
        sign = "+" if coeff >= 0 else "-"
        terms.append(f"{sign} {abs(coeff):.17g} {names[idx]}")
    if not terms:
        return "0 " + names[0] if names else "0"
    out = " ".join(terms)
    return out[2:] if out.startswith("+ ") else out
