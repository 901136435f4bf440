"""Generic mixed-integer linear model container.

Holds variables indexed by hashable keys, linear constraints tagged with their
family name, and a maximize objective; solves in-process with the HiGHS that
scipy bundles, and writes the model as a CPLEX LP file for export. Display
names are formatted only for export and error messages. A solution comes back
as one list of column values in column order (``SolveResult.x``); readers
find their columns through the indices ``add_var`` returned.

Rows go into one COO store: a row, column and coefficient per entry, plus
each row's family, sense and right-hand side. ``add_constr`` appends one
row; ``add_rows`` appends a block of rows as three entry arrays, the rows
counted from the block's first, and ``add_vars`` a block of columns. The
store keeps each block's arrays as they come, and ``entries`` concatenates
them once, so ``solve`` hands HiGHS the matrix with no Python pass over its
columns or entries: it sorts the entries by column and then row, the order
scipy's CSC conversion gives, whatever their order within a row, and
``milp`` passes the arrays to HiGHS as they are (``passModel``'s array
form, with no ``HighsLp`` and no list of column types).
``constraints`` is a read-only view derived from the store, for
``write_lp`` and for readers outside the solve path. On the one-year
five-satellite multimodal campaign (36 models, a shared 2-vCPU VM),
building the models took 0.62-0.73 s and ``solve``'s own work around HiGHS
0.11-0.13 s when rows were dicts keyed by column tuples and walked row by
row, and 0.22-0.30 s and 0.05-0.06 s with one integer-indexed row per
``add_constr``. With the blocks that ``oosplan.milp`` now writes, the
build (``_prepare`` included) took 0.115-0.116 s → 0.066-0.070 s and
``solve``'s work outside ``milp`` 0.021-0.022 s → 0.009-0.010 s (three
alternated replays of that campaign's 36 models, HiGHS's results replayed),
and HiGHS gets byte-identical arrays.

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

``milp`` also switches off feasibility jump, the primal heuristic that HiGHS
1.12 runs before branch-and-bound (Luteberget & Sartor, Math. Prog. Comp. 15,
2023); ``HIGHS_OPTIONS`` holds every option it sets. On these models the
heuristic cost time and changed no objective, integer value or output file.
Replayed as above (three alternated rounds), HiGHS took 0.92-1.00 s →
0.69-0.73 s on the campaign, 0.41-0.48 → 0.41-0.42 s on the plan,
1.00-1.05 → 0.61-0.70 s on the oracle instances and 0.97-1.13 → 0.70-0.73 s
on the high-thrust campaign, with the same objectives and node counts. The
other primal heuristics keep their default effort, because they find the
early incumbent that a time-limit stop hands back. Without feasibility jump
that incumbent came sooner, not later (a MIP-improving-solution callback,
five alternated rounds): 0.10-0.11 → 0.07-0.08 s on the campaign step with
the most nodes, and 0.23-0.25 → 0.19-0.21 s on the plan; in both, that first
incumbent is the optimum.

scipy serves only as the carrier of that HiGHS: its extension module is
loaded from its file (``_load_highs``, which needs scipy 1.17's layout), and
the constraint matrix goes to HiGHS as three numpy arrays. That way
``import oosplan.cli`` imports neither scipy's optimize nor its sparse
package, and took 0.14-0.15 s instead of 0.45-0.47 s (three runs each, a
shared 2-vCPU VM).
"""

from __future__ import annotations

import importlib.util
import math
import os
import re
import sys
from collections.abc import Hashable
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from itertools import islice
from pathlib import Path
from types import ModuleType
from typing import Optional

import numpy as np


def _load_highs() -> ModuleType:
    """scipy's bundled HiGHS extension, loaded from its file in scipy 1.17's
    install layout without running the ``__init__`` of scipy's optimize
    package, which imports that whole package and scipy's sparse one.

    It is registered in ``sys.modules`` under its real name, so scipy
    reuses it. Until scipy imports its optimize package, the attribute path
    from ``scipy`` to the module does not resolve, but ``from ... import
    _core`` does.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    package = Path(importlib.util.find_spec("scipy").origin).parent
    # the platform's full extension suffix, the one scipy's build uses
    path = (package / "optimize" / "_highspy"
            / ("_core" + EXTENSION_SUFFIXES[0]))
    spec = importlib.util.spec_from_file_location(
        name, path, loader=ExtensionFileLoader(name, str(path)))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


highs = _load_highs()

CONTINUOUS = "cont"
INTEGER = "int"
BINARY = "bin"

_SENSES = ("<=", ">=", "==")     # a row's sense, by the code the store keeps
_SENSE_CODE = {sense: code for code, sense in enumerate(_SENSES)}

_STATUS = {0: "optimal", 1: "time-limit", 2: "infeasible", 3: "unbounded"}

# HiGHS presolve rule 15 is probing (HiGHS 1.12); ``milp`` switches it off
PROBING_OFF = 1 << 15

# the HiGHS options every ``milp`` call sets, each away from its default;
# ``milp`` adds the gap and the time limit (see the module docstring)
HIGHS_OPTIONS = {"output_flag": False, "presolve_rule_off": PROBING_OFF,
                 "mip_heuristic_run_feasibility_jump": False}

_HMS = highs.HighsModelStatus
# scipy.optimize.milp's status code per HiGHS model status, except that a
# model HiGHS rejects (kModelError) is 4, a solver failure, not infeasible;
# every other status (unbounded-or-infeasible, an empty model, ...) is 4 too
_SCIPY_STATUS = {_HMS.kOptimal: 0, _HMS.kTimeLimit: 1, _HMS.kIterationLimit: 1,
                 _HMS.kInfeasible: 2, _HMS.kUnbounded: 3}
# limits after which a MILP's incumbent, if HiGHS holds one, comes back
_LIMITS = (_HMS.kTimeLimit, _HMS.kIterationLimit, _HMS.kSolutionLimit)
# the matrix layout and objective sense of every model ``milp`` passes
_COLWISE = int(highs.MatrixFormat.kColwise)
_MINIMIZE = int(highs.ObjSense.kMinimize)


class SolveError(Exception):
    pass


def col_name(key: Hashable) -> str:
    """Display name of a column: ``tag[a|b|...]`` for a tuple key."""
    if isinstance(key, tuple):
        return key[0] + "[" + "|".join(map(str, key[1:])) + "]"
    return str(key)


@dataclass
class Constraint:
    """One row, as ``Model.constraints`` reads it back from the store;
    changing it leaves the model as it is."""
    name: str                   # constraint family
    coeffs: dict[int, float]    # column -> coefficient, zeros included
    sense: str                  # "<=", ">=", "=="
    rhs: float


@dataclass
class SolveResult:
    status: str     # optimal | time-limit | infeasible | unbounded
    objective: Optional[float]
    # column values in column order, as Python floats; empty without a
    # solution
    x: list[float] = field(default_factory=list)
    gap: Optional[float] = None
    dual_bound: Optional[float] = None  # best bound on the objective (HiGHS)
    nodes: Optional[int] = None         # branch-and-bound nodes (HiGHS)
    iterations: Optional[int] = None    # simplex iterations (HiGHS)

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
    simplex_iteration_count: Optional[int] = None   # set once HiGHS ran


def milp(c: np.ndarray, start: np.ndarray, index: np.ndarray,
         value: np.ndarray, row_lower: np.ndarray, row_upper: np.ndarray,
         col_lower: np.ndarray, col_upper: np.ndarray,
         integrality: np.ndarray, gap: float,
         time_limit: Optional[float] = None) -> HighsResult:
    """Minimize ``c @ x`` subject to ``row_lower <= a @ x <= row_upper`` and
    ``col_lower <= x <= col_upper``, with ``x[j]`` integer where
    ``integrality[j]`` is 1, by HiGHS with presolve probing and the
    feasibility-jump heuristic off (``HIGHS_OPTIONS``).

    ``a`` comes as the three arrays of a compressed sparse column matrix:
    column ``j`` holds ``value[start[j]:start[j+1]]`` in the rows
    ``index[start[j]:start[j+1]]``.

    A solution comes back for an optimum, and for a MILP stopped at a limit
    only if HiGHS holds an incumbent, as ``scipy.optimize.milp`` does.
    """
    solver = highs._Highs()
    options = dict(HIGHS_OPTIONS, mip_rel_gap=float(gap))
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    for key, setting in options.items():
        if solver.setOptionValue(key, setting) != highs.HighsStatus.kOk:
            raise SolveError(f"HiGHS rejects option {key}={setting!r}")
    passed = solver.passModel(
        len(c), len(row_lower), len(value), _COLWISE, _MINIMIZE, 0.0,
        *(np.asarray(a, dtype=float) for a in (c, col_lower, col_upper,
                                                row_lower, row_upper)),
        *(np.asarray(a, dtype=np.int32) for a in (start, index)),
        np.asarray(value, dtype=float),
        np.asarray(integrality, dtype=np.int32))
    if passed == highs.HighsStatus.kError:
        return HighsResult(4, "HiGHS rejects the model")
    # HiGHS can print to file descriptor 1 even with output off; keep that
    # on stderr, off the standard output of the program that solves
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        ran = solver.run() != highs.HighsStatus.kError
    finally:
        os.dup2(saved, 1)
        os.close(saved)
    status = solver.getModelStatus()
    info = solver.getInfo()
    res = HighsResult(_SCIPY_STATUS.get(status, 4),
                      solver.modelStatusToString(status),
                      simplex_iteration_count=info.simplex_iteration_count)
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
        # the rows: blocks of (row, column, coefficient) entry arrays, the
        # rows numbered in the model, in the order they were added; the
        # entries of ``add_constr`` since the last block, not yet one; and
        # each row's family, sense code and right-hand side
        self._blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._entry_row: list[int] = []
        self._entry_col: list[int] = []
        self._entry_val: list[float] = []
        self._family: list[str] = []
        self._sense: list[int] = []
        self._rhs: list[float] = []

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

    def add_vars(self, keys: list[Hashable], lb: list[float],
                 ub: list[float], kind: list[str]) -> int:
        """Append one column per key, in order, with the bounds and kind at
        its position in ``lb``, ``ub`` and ``kind``; returns the index of
        the first. A binary column's bounds must lie in [0, 1] already:
        unlike ``add_var``, this does not clamp them."""
        first = len(self._index)
        index = dict(zip(keys, range(first, first + len(keys))))
        if len(index) != len(keys) or not self._index.keys().isdisjoint(index):
            seen = set(self._index)
            key = next(k for k in keys if k in seen or seen.add(k))
            raise ValueError(f"duplicate variable {col_name(key)!r}")
        self._index.update(index)
        self.var_lb.extend(lb)
        self.var_ub.extend(ub)
        self.var_kind.extend(kind)
        return first

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

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

    def fixed_lp(self, x: list[float],
                 objective: dict[int, float]) -> Model:
        """An LP copy of this model: every integer column ``j`` fixed at
        ``x[j]`` rounded, and ``objective`` maximized. This model is left as
        it is."""
        lp = Model(self.name + "-fixed")
        lp._index = dict(self._index)
        lp.var_lb, lp.var_ub = list(self.var_lb), list(self.var_ub)
        lp.var_kind = [CONTINUOUS] * self.n_vars
        for j, kind in enumerate(self.var_kind):
            if kind != CONTINUOUS:
                lp.fix(j, float(round(x[j])))
        lp.objective = dict(objective)
        # the entry arrays are never written to, so the copy shares them
        lp._blocks = [self.entries()]
        lp._family, lp._sense = list(self._family), list(self._sense)
        lp._rhs = list(self._rhs)
        return lp

    def add_objective(self, idx: int, coeff: float):
        self.objective[idx] = self.objective.get(idx, 0.0) + coeff

    def add_constr(self, name: str, coeffs: dict[int, float], sense: str,
                   rhs: float):
        """Append the row ``coeffs sense rhs``, ``coeffs`` mapping column to
        coefficient. Zero coefficients are stored, and dropped when HiGHS
        gets the matrix."""
        code = _SENSE_CODE.get(sense)
        if code is None:
            raise ValueError(f"bad sense {sense!r}")
        self._entry_row.extend([len(self._family)] * len(coeffs))
        self._entry_col.extend(coeffs)
        self._entry_val.extend(coeffs.values())
        self._family.append(name)
        self._sense.append(code)
        self._rhs.append(rhs)

    def add_rows(self, family: str | list[str], row: np.ndarray,
                 col: np.ndarray, val: np.ndarray, sense: str | list[str],
                 rhs: np.ndarray):
        """Append ``len(rhs)`` rows ``sense rhs`` as one block: entry ``e``
        puts ``val[e]`` in column ``col[e]`` of the ``row[e]``-th new row,
        counted from 0. ``family`` and ``sense`` hold for every row, or
        list one per row. Zero coefficients are stored, as ``add_constr``
        stores them."""
        n = len(rhs)
        try:
            codes = ([_SENSE_CODE[sense]] * n if isinstance(sense, str)
                     else list(map(_SENSE_CODE.__getitem__, sense)))
        except KeyError as e:
            raise ValueError(f"bad sense {e.args[0]!r}") from None
        self._flush()
        self._blocks.append((np.asarray(row, dtype=np.intp) + self.n_rows,
                             np.asarray(col, dtype=np.intp),
                             np.asarray(val, dtype=float)))
        self._family.extend([family] * n if isinstance(family, str)
                            else family)
        self._sense.extend(codes)
        self._rhs.extend(np.asarray(rhs, dtype=float).tolist())

    def _flush(self):
        """Turn the entries of ``add_constr`` since the last block into
        one."""
        if self._entry_row:
            self._blocks.append((np.array(self._entry_row, dtype=np.intp),
                                 np.array(self._entry_col, dtype=np.intp),
                                 np.array(self._entry_val, dtype=float)))
            self._entry_row, self._entry_col, self._entry_val = [], [], []

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row, column and coefficient of every entry, in the order the
        rows were added; within a row, in no set order."""
        self._flush()
        if not self._blocks:
            return (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
                    np.zeros(0))
        if len(self._blocks) > 1:
            self._blocks = [tuple(map(np.concatenate, zip(*self._blocks)))]
        return self._blocks[0]

    @property
    def n_rows(self) -> int:
        return len(self._family)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows in order, read back from the store."""
        rows, cols, vals = self.entries()
        order = np.argsort(rows, kind="stable")
        entries = zip(cols[order].tolist(), vals[order].tolist())
        sizes = np.bincount(rows, minlength=self.n_rows).tolist()
        return tuple(map(Constraint, self._family,
                         [dict(islice(entries, n)) for n in sizes],
                         map(_SENSES.__getitem__, self._sense), self._rhs))

    @property
    def n_vars(self) -> int:
        return len(self._index)

    def solve(self, gap: float = 0.0, time_limit: Optional[float] = None) -> SolveResult:
        """Solve in-process with HiGHS through ``milp``, which skips presolve
        probing and the feasibility-jump heuristic: on the planning models
        both cost time and changed no optimum (see the module docstring)."""
        n = self.n_vars
        c = np.zeros(n)
        terms = len(self.objective)
        c[np.fromiter(self.objective, np.intp, terms)] = -np.fromiter(
            self.objective.values(), float, terms)      # HiGHS minimizes
        integrality = np.array(
            [0 if k == CONTINUOUS else 1 for k in self.var_kind])
        rows, cols, data = self.entries()
        nonzero = data != 0.0
        rows, cols, data = rows[nonzero], cols[nonzero], data[nonzero]
        sense = np.array(self._sense, dtype=np.int8)
        rhs = np.array(self._rhs, dtype=float)
        # column-major order, each column's rows ascending: the order
        # scipy's CSC conversion gives
        order = np.argsort(cols * self.n_rows + rows, kind="stable")
        start = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
        res = milp(c, start, rows[order].astype(np.int32), data[order],
                   np.where(sense == _SENSE_CODE["<="], -np.inf, rhs),
                   np.where(sense == _SENSE_CODE[">="], np.inf, rhs),
                   np.array(self.var_lb, dtype=float),
                   np.array(self.var_ub, dtype=float), integrality,
                   gap, time_limit)
        status = _STATUS.get(res.status, "error")
        if status == "error":
            raise SolveError(f"solver failure: {res.message}")
        bound = res.mip_dual_bound
        stats = dict(gap=res.mip_gap,
                     dual_bound=None if bound is None else -float(bound),
                     nodes=res.mip_node_count,
                     iterations=res.simplex_iteration_count)
        if res.x is None:
            return SolveResult(status=status, objective=None, **stats)
        return SolveResult(status=status, objective=float(-res.fun),
                           x=res.x.tolist(), **stats)

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
