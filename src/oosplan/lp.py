"""Generic mixed-integer linear model container with pluggable solving.

Holds variables indexed by hashable keys, linear constraints tagged with their
family name, and a maximize objective; solves in-process with the HiGHS that
scipy bundles, or through any external solver via LP-file export and a plain
``variable value`` solution file with an optional ``status`` line. Display
names are formatted only for export and error messages.

HiGHS is called directly (``milp``) rather than through
``scipy.optimize.milp``, because only the direct call can switch off one
presolve rule: probing, which tentatively fixes each binary and propagates
the result. On the planning models probing took most of HiGHS's time.
Replaying the HiGHS calls of the four benchmark workloads at seed 0 (a shared
2-vCPU VM), HiGHS took 5.52 s → 0.96 s on the one-year multimodal campaign,
2.23 → 0.48 s on the 90-day 20-satellite plan, 1.48 → 1.15 s on the 50 oracle
instances and 3.03 → 1.08 s on the high-thrust campaign, with every objective
equal to 1e-9 relative. Presolve stays on: switched off as a whole, it made
the oracle instances slower than the default (1.81 s).
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
from scipy.optimize._highspy import _core as highs

CONTINUOUS = "cont"
INTEGER = "int"
BINARY = "bin"

_STATUS = {0: "optimal", 1: "time-limit", 2: "infeasible", 3: "unbounded"}

# HiGHS presolve rule 15 is probing (HiGHS 1.12); ``milp`` switches it off
PROBING_OFF = 1 << 15

_HMS = highs.HighsModelStatus
# scipy.optimize.milp's status code per HiGHS model status, as in
# scipy.optimize._linprog_highs; every other status (unbounded-or-infeasible,
# an empty model, ...) is 4
_SCIPY_STATUS = {_HMS.kOptimal: 0, _HMS.kTimeLimit: 1, _HMS.kIterationLimit: 1,
                 _HMS.kInfeasible: 2, _HMS.kModelError: 2, _HMS.kUnbounded: 3}
# limits after which a MILP's incumbent, if HiGHS holds one, comes back
_LIMITS = (_HMS.kTimeLimit, _HMS.kIterationLimit, _HMS.kSolutionLimit)


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


@dataclass
class HighsResult:
    """One HiGHS run, in the terms of ``scipy.optimize.milp``'s result."""
    status: int         # 0 optimal, 1 limit, 2 infeasible, 3 unbounded, 4 other
    message: str
    x: Optional[np.ndarray] = None
    fun: Optional[float] = None
    # set for a MILP whose solution came back
    mip_gap: Optional[float] = None
    mip_dual_bound: Optional[float] = None
    mip_node_count: Optional[int] = None


def milp(c: np.ndarray, a: sparse.csc_matrix, row_lower: np.ndarray,
         row_upper: np.ndarray, col_lower: np.ndarray,
         col_upper: np.ndarray, integrality: np.ndarray, gap: float,
         time_limit: Optional[float] = None) -> HighsResult:
    """Minimize ``c @ x`` subject to ``row_lower <= a @ x <= row_upper`` and
    ``col_lower <= x <= col_upper``, with ``x[j]`` integer where
    ``integrality[j]`` is 1, by HiGHS with presolve probing off.

    A solution comes back for an optimum, and for a MILP stopped at a limit
    only if HiGHS holds an incumbent, as ``scipy.optimize.milp`` does.
    """
    n_row, n_col = a.shape
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_col
    lp.num_row_ = lp.a_matrix_.num_row_ = n_row
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    lp.col_cost_ = c
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.integrality_ = [highs.HighsVarType(int(k)) for k in integrality]
    solver = highs._Highs()
    options = {"output_flag": False, "mip_rel_gap": float(gap),
               "presolve_rule_off": PROBING_OFF}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    for key, value in options.items():
        if solver.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise SolveError(f"HiGHS rejects option {key}={value!r}")
    if solver.passModel(lp) == highs.HighsStatus.kError:
        return HighsResult(2, "model error")
    ran = solver.run() != highs.HighsStatus.kError
    status = solver.getModelStatus()
    res = HighsResult(_SCIPY_STATUS.get(status, 4),
                      solver.modelStatusToString(status))
    info = solver.getInfo()
    is_mip = bool(np.any(integrality))
    solved = status == _HMS.kOptimal or (
        is_mip and status in _LIMITS
        and info.objective_function_value != highs.kHighsInf)
    if ran and solved:
        res.x = np.array(solver.getSolution().col_value)
        res.fun = info.objective_function_value
        if is_mip:
            res.mip_gap = info.mip_gap
            res.mip_dual_bound = info.mip_dual_bound
            res.mip_node_count = info.mip_node_count
    return res


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
        """Solve in-process with HiGHS through ``milp``, whose presolve skips
        probing: on the planning models probing took most of HiGHS's time
        and changed no optimum (see the module docstring)."""
        n = self.n_vars
        c = np.zeros(n)
        for idx, coeff in self.objective.items():
            c[idx] = -coeff     # HiGHS minimizes
        integrality = np.array(
            [0 if k == CONTINUOUS else 1 for k in self.var_kind])
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
        a = sparse.csc_matrix((data, (rows, cols)),
                              shape=(len(self.constraints), n))
        res = milp(c, a, np.array(lo, dtype=float), np.array(hi, dtype=float),
                   np.array(self.var_lb), np.array(self.var_ub), integrality,
                   gap, time_limit)
        status = _STATUS.get(res.status, "error")
        if status == "error":
            raise SolveError(f"solver failure: {res.message}")
        bound = res.mip_dual_bound
        stats = dict(gap=res.mip_gap,
                     dual_bound=None if bound is None else -float(bound),
                     nodes=res.mip_node_count)
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
