import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from lp_text import parse_lp
from micro import micro_instance
from test_milp import pinned_instance_with_arrival

import oosplan
from oosplan import horizon, lp, milp
from oosplan.demand import generate_stream
from oosplan.lp import CONTINUOUS, INTEGER, Model, SolveError
from oosplan.milp import PlanProblem, SolveOptions
from oosplan.scenario import CustomerSat

# where this test's oosplan and test helpers come from, for the interpreters
# it starts
SRC = str(Path(oosplan.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)


def add_row(m: Model, family: str, coeffs: dict[int, float], sense: str,
            rhs: float):
    """Append the one row ``coeffs sense rhs`` of ``family`` to ``m``."""
    m.add_rows(family, sense, [rhs],
               (np.zeros(len(coeffs), dtype=np.intp),
                np.array(list(coeffs), dtype=np.intp),
                np.array(list(coeffs.values()), dtype=float)))


def knapsack() -> Model:
    m = Model("knapsack")
    values = [10.0, 13.0, 7.0, 8.0]
    weights = [3.0, 4.0, 2.0, 3.0]
    m.add_vars([f"x[{i}]" for i in range(4)], [0.0] * 4, [1.0] * 4,
               [INTEGER] * 4)
    m.objective = dict(enumerate(values))
    add_row(m, "cap", dict(enumerate(weights)), "<=", 7.0)
    return m


def test_solve_knapsack():
    res = knapsack().solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(23.0)
    assert res.x[0] == pytest.approx(1.0)
    assert res.x[1] == pytest.approx(1.0)


def test_continuous_and_integer():
    m = Model()
    x = m.add_vars(["x", "y"], [0.0, 0.0], [10.0, 10.0],
                   [CONTINUOUS, INTEGER])
    y = x + 1
    m.objective = {x: 1.0, y: 1.0}
    add_row(m, "c", {x: 1.0, y: 2.0}, "<=", 8.5)
    res = m.solve()
    assert res.status == "optimal"
    assert res.x[y] == pytest.approx(round(res.x[y]))
    assert res.objective == pytest.approx(8.5)


def test_infeasible_status():
    m = Model()
    x = m.add_vars(["x"], [0.0], [1.0], [CONTINUOUS])
    add_row(m, "c", {x: 1.0}, ">=", 2.0)
    res = m.solve()
    assert res.status == "infeasible"
    assert not res.feasible
    assert res.objective is None


def test_unbounded_status():
    m = Model()
    x = m.add_vars(["x"], [0.0], [math.inf], [CONTINUOUS])
    m.objective[x] = 1.0
    res = m.solve()
    assert res.status == "unbounded"


def test_fixed_lp_and_duplicate():
    # the LP copy fixes each integer column at its value rounded, keeps the
    # continuous ones free and leaves the model as it is
    m = Model()
    x = m.add_vars(["x", "y"], [0.0, 0.0], [5.0, 5.0], [CONTINUOUS, INTEGER])
    y = x + 1
    m.objective = {x: 1.0, y: 1.0}
    fixed = m.fixed_lp([0.0, 2.4], {x: 1.0})
    assert (fixed.var_lb, fixed.var_ub) == ([0.0, 2.0], [5.0, 2.0])
    assert fixed.var_kind == [CONTINUOUS] * 2
    assert fixed.solve().objective == pytest.approx(5.0)
    assert (m.var_lb, m.var_ub) == ([0.0, 0.0], [5.0, 5.0])
    assert m.var_kind == [CONTINUOUS, INTEGER]
    assert m.solve().objective == pytest.approx(10.0)
    with pytest.raises(ValueError):
        m.add_vars(["x"], [0.0], [math.inf], [CONTINUOUS])
    with pytest.raises(ValueError):
        add_row(m, "bad", {x: 1.0}, "=<", 0.0)


def test_add_rows_contract(tmp_path):
    # the one row path: absent entries drop out, an empty row that holds at
    # zero is dropped on the first read, family and sense come one for all
    # or one per row, coefficients as an array or one number for all
    m = Model("rows")
    assert m.add_vars(["a"], [0.0], [4.0], [INTEGER]) == 0
    assert m.add_vars(["b", "c"], [0.0] * 2, [1.0, 9.0],
                      [INTEGER, CONTINUOUS]) == 1
    m.objective = {0: 1.0, 2: 0.5}
    m.add_rows(["r0", "r1", "gone", "r2"], ["<=", ">=", "==", "=="],
               np.array([3.0, 1.0, 0.0, 2.0]),
               (np.array([0, 1, 0, 1, 2, 3]), np.array([0, 1, 2, 0, -1, 2]),
                np.array([1.0, 4.0, -2.0, 0.0, 7.0, 1.0])),
               (np.array([lp.NO_ROW, 2]), np.array([1, -1]), 5.0))
    m.add_rows("r3", "<=", [5.0], (np.array([0, 0]), np.array([2, 0]), 1.0))
    assert [(con.name, con.coeffs, con.sense, con.rhs)
            for con in m.constraints] == [
        ("r0", {0: 1.0, 2: -2.0}, "<=", 3.0),
        ("r1", {1: 4.0, 0: 0.0}, ">=", 1.0),
        ("r2", {2: 1.0}, "==", 2.0),
        ("r3", {2: 1.0, 0: 1.0}, "<=", 5.0)]
    assert m.n_rows == 4
    assert [a.tolist() for a in m.entries()] == [
        [0, 1, 0, 1, 2, 3, 3], [0, 1, 2, 0, 2, 2, 0],
        [1.0, 4.0, -2.0, 0.0, 1.0, 1.0, 1.0]]
    res = m.solve()
    assert res.status == "optimal"
    assert res.x == pytest.approx([3.0, 1.0, 2.0])
    assert res.objective == pytest.approx(4.0)
    # the model read back from its LP text has the same optimum
    m.write_lp(tmp_path / "rows.lp")
    again = parse_lp(tmp_path / "rows.lp")
    assert again.solve().objective == pytest.approx(res.objective,
                                                    rel=1e-12)
    with pytest.raises(ValueError, match="duplicate variable 'c'"):
        m.add_vars(["d", "c"], [0.0] * 2, [1.0] * 2, [CONTINUOUS] * 2)
    with pytest.raises(ValueError, match="bad sense '=<'"):
        m.add_rows("r", "=<", [0.0], (np.array([0]), np.array([0]), 1.0))
    with pytest.raises(ValueError, match="bad sense '<'"):
        m.add_rows(["r", "r"], ["<=", "<"], [0.0, 0.0])
    assert m.n_rows == 4
    # rows added after a read are folded in on the next, after the rows
    # read and numbered on from them
    m.add_rows(["gone", "r4"], ">=", [0.0, 0.0],
               (np.array([1, 0]), np.array([1, -1]), 1.0))
    assert m.n_rows == 5
    assert [a.tolist() for a in m.entries()] == [
        [0, 1, 0, 1, 2, 3, 3, 4], [0, 1, 2, 0, 2, 2, 0, 1],
        [1.0, 4.0, -2.0, 0.0, 1.0, 1.0, 1.0, 1.0]]
    assert m.constraints[-1] == lp.Constraint("r4", {1: 1.0}, ">=", 0.0)


def test_an_empty_row_that_cannot_hold_fails_the_first_read(tmp_path):
    # an == row at 1 whose only entry is absent: add_rows takes it, and the
    # first read of the rows raises, naming its family, as often as asked
    m = Model()
    m.add_vars(["x"], [0.0], [1.0], [CONTINUOUS])
    m.add_rows("presence", "==", [1.0], (np.array([0]), np.array([-1]), 1.0))
    for read in (Model.entries, lambda m: m.n_rows, lambda m: m.constraints,
                 Model.solve, lambda m: m.write_lp(tmp_path / "m.lp")):
        with pytest.raises(milp.ModelError,
                           match=r"empty presence row cannot hold: 0 == 1\.0"):
            read(m)


def test_lp_round_trip(tmp_path):
    m = Model("rt")
    x = m.add_vars(["x[a|0]", "y", "z"], [0.0] * 3, [4.0, 3.0, 1.0],
                   [CONTINUOUS, INTEGER, INTEGER])
    y, z = x + 1, x + 2
    m.objective = {x: 1.5, y: 2.0, z: -1.0}
    add_row(m, "c1", {x: 1.0, y: 1.0}, "<=", 5.25)
    add_row(m, "c2", {x: 2.0, z: -1e-5}, ">=", 0.5)
    add_row(m, "c3", {y: 1.0, z: 1.0}, "==", 2.0)
    path = tmp_path / "model.lp"
    m.write_lp(path)
    again = parse_lp(path)
    r1, r2 = m.solve(), again.solve()
    assert r1.status == r2.status == "optimal"
    assert r1.objective == pytest.approx(r2.objective, rel=1e-9)


def test_lp_text_keeps_the_objective_constant(tmp_path):
    # the constant ends the objective line, and both readers of the text,
    # this suite's and HiGHS's own, solve it to the model's optimum
    m = Model("offset")
    x = m.add_vars(["x", "y"], [0.0] * 2, [4.0, 1.0], [CONTINUOUS, INTEGER])
    y = x + 1
    m.objective = {x: 1.5, y: 2.0}
    add_row(m, "c", {x: 1.0, y: 1.0}, "<=", 4.0)
    m.offset = -5.0
    path = tmp_path / "offset.lp"
    m.write_lp(path)
    want = m.solve().objective
    assert want == pytest.approx(1.5)
    again = parse_lp(path)
    assert again.offset == -5.0
    assert again.solve().objective == pytest.approx(want, rel=1e-12)
    solver = lp.highs._Highs()
    solver.setOptionValue("output_flag", False)
    assert solver.readModel(str(path)) == lp.highs.HighsStatus.kOk
    assert solver.getObjectiveOffset()[1] == -5.0
    assert solver.run() == lp.highs.HighsStatus.kOk
    assert solver.getInfo().objective_function_value == pytest.approx(
        want, rel=1e-12)


def test_lp_names_injective(tmp_path):
    # two display names that sanitize to the same text stay two columns
    m = Model("clash")
    a = m.add_vars(["x[a|b]", "x[a_b]"], [0.0] * 2, [1.0, 2.0],
                   [CONTINUOUS] * 2)
    b = a + 1
    m.objective = {a: 1.0, b: 3.0}
    add_row(m, "cap", {a: 1.0, b: 1.0}, "<=", 2.5)
    path = tmp_path / "clash.lp"
    m.write_lp(path)
    again = parse_lp(path)
    assert again.n_vars == 2
    res = again.solve()
    assert len(res.x) == 2
    assert res.x[a] == pytest.approx(0.5) and res.x[b] == pytest.approx(2.0)
    assert res.objective == pytest.approx(6.5)


def test_time_limit_without_incumbent_is_not_feasible():
    rng = np.random.default_rng(0)
    m = Model("knapsack30")
    m.add_vars([("x", j) for j in range(200)], [0.0] * 200, [1.0] * 200,
               [INTEGER] * 200)
    m.objective = {j: float(rng.uniform(1.0, 10.0)) for j in range(200)}
    for r in range(30):
        add_row(m, "cap", {j: float(rng.uniform(1.0, 10.0))
                           for j in range(200)}, "<=", 100.0)
    res = m.solve(time_limit=1e-9)
    assert res.status == "time-limit"
    assert not res.feasible
    assert res.x == [] and res.objective is None


def test_gap_and_mip_gap_reported():
    res = knapsack().solve(gap=0.5)
    assert res.feasible
    assert res.gap is None or res.gap <= 0.5 + 1e-9


def test_dual_bound_and_nodes_reported():
    res = knapsack().solve(gap=0.0)
    assert res.dual_bound == pytest.approx(res.objective)
    assert res.nodes >= 0


# -- the direct HiGHS call against scipy.optimize.milp -------------------------

INF = np.inf
PARITY_CASES = {
    # name: c, A rows, row lower, row upper, col lower, col upper, integrality
    "knapsack": ([-10, -13, -7, -8], [[3, 4, 2, 3]], [-INF], [7],
                 [0] * 4, [1] * 4, [1] * 4),
    "no_rows": ([-10, -13, -7, -8], [], [], [], [0] * 4, [1] * 4, [1] * 4),
    "infeasible_lp": ([-1], [[1]], [2], [INF], [0], [1], [0]),
    "infeasible_mip": ([-1], [[1]], [2], [INF], [0], [1], [1]),
    "unbounded_lp": ([-1], [], [], [], [0], [INF], [0]),
    # HiGHS: primal infeasible or unbounded
    "unbounded_mip": ([-1, 0], [[1, -1]], [0], [INF], [0, 0], [INF, INF],
                      [0, 1]),
    "pure_lp": ([-1, -1], [[1, -1], [-1, 1]], [0, 0], [1, 1], [0, 0],
                [4, 4], [0, 0]),
}


def _both(c, rows, row_lo, row_hi, lb, ub, integrality, time_limit=None):
    c = np.array(c, dtype=float)
    a = np.array(rows, dtype=float).reshape(len(row_lo), len(c))
    args = (np.array(row_lo, dtype=float), np.array(row_hi, dtype=float),
            np.array(lb, dtype=float), np.array(ub, dtype=float),
            np.array(integrality))
    csc = sparse.csc_matrix(a)
    ours = lp.milp(c, csc.indptr, csc.indices, csc.data, *args, 0.0,
                   time_limit)
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit
    ref = scipy.optimize.milp(
        c, integrality=args[4], bounds=scipy.optimize.Bounds(*args[2:4]),
        constraints=[scipy.optimize.LinearConstraint(a, *args[:2])]
        if len(row_lo) else None, options=options)
    return ours, ref


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_direct_highs_matches_scipy_milp(case):
    ours, ref = _both(*PARITY_CASES[case])
    assert ours.status == ref.status
    assert ours.fun == ref.fun
    assert (ours.x is None) == (ref.x is None)
    if ours.x is not None:
        assert ours.x.tolist() == ref.x.tolist()
    for field in ("mip_gap", "mip_dual_bound", "mip_node_count"):
        assert getattr(ours, field) == getattr(ref, field), field


def test_parity_statuses_cover_the_mapping():
    status = {case: _both(*args)[0].status
              for case, args in PARITY_CASES.items()}
    assert status == {"knapsack": 0, "no_rows": 0, "infeasible_lp": 2,
                      "infeasible_mip": 2, "unbounded_lp": 3,
                      "unbounded_mip": 4, "pure_lp": 0}
    ours, ref = _both(*PARITY_CASES["knapsack"], time_limit=1e-9)
    assert ours.status == ref.status == 1
    assert ours.x is None and ref.x is None


def test_pure_lp_reports_no_mip_statistics():
    m = Model()
    x = m.add_vars(["x"], [0.0], [4.0], [CONTINUOUS])
    m.objective[x] = 1.0
    res = m.solve()
    assert res.status == "optimal" and res.objective == pytest.approx(4.0)
    assert res.gap is None and res.dual_bound is None and res.nodes is None


def test_status_four_raises():
    m = Model()
    x = m.add_vars(["x", "y"], [0.0] * 2, [math.inf] * 2,
                   [CONTINUOUS, INTEGER])
    y = x + 1
    m.objective[x] = 1.0
    add_row(m, "c", {x: 1.0, y: -1.0}, ">=", 0.0)
    with pytest.raises(SolveError, match="infeasible or unbounded"):
        m.solve()


def test_a_model_with_no_column_is_its_empty_solution():
    # HiGHS calls a model with no column empty: its solution is x = [],
    # worth the objective's constant, where every row holds at zero. A
    # model's row with no entry never reaches HiGHS: it is dropped if it
    # holds at zero, and fails the model's first read if not
    m = Model("empty")
    m.offset = -5.0
    add_row(m, "holds", {}, "<=", 1.0)
    res = m.solve()
    assert (res.status, res.objective, res.x) == ("optimal", -5.0, [])
    assert m.n_rows == 0
    add_row(m, "fails", {}, ">=", 1.0)
    with pytest.raises(milp.ModelError, match="empty fails row cannot hold"):
        m.solve()
    # HiGHS gets such rows only from a direct call
    none = (np.zeros(0), np.zeros(1, dtype=np.int32),
            np.zeros(0, dtype=np.int32), np.zeros(0))
    cols = (np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int32))
    res = lp.milp(*none, np.array([-np.inf]), np.array([1.0]), *cols, 0.0,
                  offset=5.0)
    assert (res.status, res.fun, res.x.tolist()) == (0, 5.0, [])
    res = lp.milp(*none, np.array([1.0]), np.array([np.inf]), *cols, 0.0,
                  offset=5.0)
    assert (res.status, res.fun, res.x) == (2, None, None)


@pytest.mark.parametrize("coeff, rhs", [(math.inf, 1.0), (1.0, math.nan)],
                         ids=["infinite-coefficient", "nan-rhs"])
def test_a_model_highs_rejects_is_a_solver_failure(coeff, rhs):
    # HiGHS refuses the model itself; that says nothing about feasibility
    m = Model()
    x = m.add_vars(["x"], [0.0], [1.0], [CONTINUOUS])
    m.objective[x] = 1.0
    add_row(m, "c", {x: coeff}, "<=", rhs)
    with pytest.raises(SolveError, match="HiGHS rejects the model"):
        m.solve()


def test_one_highs_call_per_solve(monkeypatch):
    # the traced benchmark times HiGHS by rebinding oosplan.lp.milp and
    # reads mip_node_count and mip_gap from its result
    results = []
    highs_milp = lp.milp

    def counted(*args, **kwargs):
        results.append(highs_milp(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(lp, "milp", counted)
    res = knapsack().solve()
    assert len(results) == 1
    assert results[0].mip_node_count is not None
    assert results[0].mip_gap is not None
    assert res.nodes == results[0].mip_node_count


@pytest.fixture
def highs_made(monkeypatch):
    """Every HiGHS solver made while the test runs, in order."""
    made = []

    class Recorded(lp.highs._Highs):
        def __init__(self):
            super().__init__()
            made.append(self)
    monkeypatch.setattr(lp.highs, "_Highs", Recorded)
    return made


def test_presolve_runs_without_probing(highs_made):
    made = highs_made
    assert knapsack().solve().objective == pytest.approx(23.0)
    assert len(made) == 1
    _, rules_off = made[0].getOptionValue("presolve_rule_off")
    _, presolve = made[0].getOptionValue("presolve")
    assert rules_off == lp.PROBING_OFF == 1 << 15
    assert presolve != "off"


def test_feasibility_jump_off_other_heuristics_at_default(highs_made):
    assert knapsack().solve().objective == pytest.approx(23.0)
    [solver] = highs_made
    _, jump = solver.getOptionValue("mip_heuristic_run_feasibility_jump")
    assert jump is False
    _, effort = solver.getOptionValue("mip_heuristic_effort")
    _, default = lp.highs._Highs().getOptionValue("mip_heuristic_effort")
    assert effort == default


FALSE_INFEASIBLE = Path(__file__).parent / "false_infeasible.npz"


def test_a_false_infeasible_is_run_again_without_presolve(highs_made):
    # the exact ``lp.milp`` arrays of a feasible planning window (the
    # high-thrust campaign over the twenty-satellite catalog, demand seed
    # 4, the window from day 300, under a stay rule that lets a servicer
    # wait at its customer), which HiGHS 1.12 calls infeasible under the
    # shipped options and solves with presolve off
    d = np.load(FALSE_INFEASIBLE)
    res = lp.milp(*(d[k] for k in ("c", "start", "index", "value",
                                   "row_lower", "row_upper", "col_lower",
                                   "col_upper", "integrality")),
                  float(d["gap"]), offset=float(d["offset"]))
    first, *again = highs_made
    assert first.getModelStatus() == lp.highs.HighsModelStatus.kInfeasible, \
        "the shipped options no longer call the fixture infeasible, so " \
        "it does not exercise the re-run: capture a window that they do"
    [rerun] = again
    for key in lp.HIGHS_OPTIONS:
        assert rerun.getOptionValue(key) == first.getOptionValue(key)
    assert first.getOptionValue("presolve")[1] != "off"
    assert rerun.getOptionValue("presolve")[1] == "off"
    # the re-run's solution holds every row, bound and integrality
    assert res.status == 0 and res.x is not None
    x, ints = res.x, d["integrality"] == 1
    a = sparse.csc_matrix((d["value"], d["index"], d["start"]),
                          shape=(len(d["row_lower"]), len(x)))
    tol = 1e-6
    assert np.all(a @ x >= d["row_lower"] - tol)
    assert np.all(a @ x <= d["row_upper"] + tol)
    assert np.all((x >= d["col_lower"] - tol) & (x <= d["col_upper"] + tol))
    assert np.abs(x[ints] - np.round(x[ints])).max() <= tol
    assert res.fun == pytest.approx(d["c"] @ x + float(d["offset"]))


@pytest.mark.parametrize("integer, runs", [(True, 2), (False, 1)],
                         ids=["milp", "lp"])
def test_a_true_infeasible_stays_infeasible(highs_made, integer, runs):
    # a MILP that HiGHS calls infeasible runs once more without presolve
    # and stays infeasible; an LP's verdict is taken as it is
    m = Model()
    x = m.add_vars(["x"], [0.0], [1.0], [INTEGER if integer else CONTINUOUS])
    m.objective[x] = 1.0
    add_row(m, "c", {x: 1.0}, ">=", 2.0)
    assert m.solve().status == "infeasible"
    assert len(highs_made) == runs


def test_symmetry_detection_changes_no_micro_result(monkeypatch):
    # HiGHS finds no symmetry to use in these models: with its detection
    # on, as by default, each MILP of micro seeds 0-19 gives the same
    # solution, simplex iterations and nodes as with the shipped options.
    # A model that gives it symmetry to use fails here before plans change
    # silently
    assert lp.HIGHS_OPTIONS["mip_detect_symmetry"] is False
    models = []
    for seed in range(20):
        scenario, _, net, needs, init = micro_instance(seed)
        models.append(PlanProblem(scenario, net, needs, init,
                                  SolveOptions(gap=0.0)).model)

    def results():
        return [(r.status, r.x, r.iterations, r.nodes)
                for r in (m.solve(gap=0.0) for m in models)]
    shipped = results()
    monkeypatch.setitem(lp.HIGHS_OPTIONS, "mip_detect_symmetry", True)
    assert results() == shipped
    assert all(r[0] == "optimal" for r in shipped)


@pytest.mark.parametrize("fails", [False, True])
def test_highs_writes_to_stderr_not_stdout(monkeypatch, capfd, fails):
    # HiGHS can print to file descriptor 1 with its output off; that must
    # not reach the standard output of a program that solves
    class Chatty(lp.highs._Highs):
        def run(self):
            os.write(1, b"stray solver line\n")
            if fails:
                raise RuntimeError("solver failed")
            return super().run()
    monkeypatch.setattr(lp.highs, "_Highs", Chatty)
    if fails:
        with pytest.raises(RuntimeError, match="solver failed"):
            knapsack().solve()
    else:
        assert knapsack().solve().objective == pytest.approx(23.0)
    os.write(1, b"after the solve\n")
    out, err = capfd.readouterr()
    assert out == "after the solve\n"
    assert err == "stray solver line\n"


@pytest.mark.parametrize("key", sorted(lp.HIGHS_OPTIONS))
def test_highs_option_table_moves_a_default(key):
    # a HiGHS that renamed the option, or made the value its default,
    # would silently undo what the table is for
    value = lp.HIGHS_OPTIONS[key]
    solver = lp.highs._Highs()
    known, default = solver.getOptionValue(key)
    assert known == lp.highs.HighsStatus.kOk
    assert default != value
    assert solver.setOptionValue(key, value) == lp.highs.HighsStatus.kOk
    assert solver.getOptionValue(key)[1] == value


# -- how oosplan.lp reaches HiGHS ----------------------------------------------

def _fresh_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = [{SRC!r}, {TESTS!r}]\n" + code],
        capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_optimize_unloaded():
    proc = _fresh_python(
        "import oosplan.cli\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse',\n"
        "                          'concurrent.futures.process')\n"
        "             if m in sys.modules))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


@pytest.mark.parametrize("first", ["oosplan.lp", "scipy.optimize"])
def test_same_highs_in_either_import_order(first):
    # whichever comes first, oosplan and scipy share one HiGHS module, and
    # both solvers give the same knapsack result
    proc = _fresh_python(
        f"import {first}\n"
        "import test_lp\n"
        "from oosplan import lp\n"
        "from scipy.optimize._highspy import _core\n"
        "assert lp.highs is _core\n"
        "assert sys.modules['scipy.optimize._highspy._core'] is _core\n"
        "ours, ref = test_lp._both(*test_lp.PARITY_CASES['knapsack'])\n"
        "assert ours.status == ref.status == 0\n"
        "assert ours.fun == ref.fun\n"
        "assert ours.x.tolist() == ref.x.tolist()\n"
        "print('same')\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["same"]


def _record_highs_inputs(monkeypatch) -> list:
    """(model, ``lp.milp`` arguments) of every HiGHS call from now on."""
    calls, models = [], []
    model_solve, highs_milp = Model.solve, lp.milp

    def recorded_solve(self, *args, **kwargs):
        models.append(self)
        return model_solve(self, *args, **kwargs)

    def recorded_milp(*args, **kwargs):
        calls.append((models[-1], args))
        return highs_milp(*args, **kwargs)
    monkeypatch.setattr(Model, "solve", recorded_solve)
    monkeypatch.setattr(lp, "milp", recorded_milp)
    return calls


def _assert_scipy_csc(model: Model, args: tuple):
    # the matrix scipy builds from the model's nonzero coefficients, row by
    # row, is the one HiGHS got, array for array and dtype for dtype
    rows, cols, data = [], [], []
    for ri, con in enumerate(model.constraints):
        for idx, coeff in con.coeffs.items():
            if coeff != 0.0:
                rows.append(ri)
                cols.append(idx)
                data.append(coeff)
    ref = sparse.csc_matrix((np.array(data, dtype=float), (rows, cols)),
                            shape=(len(model.constraints), model.n_vars))
    for ours, theirs in zip(args[1:4], (ref.indptr, ref.indices, ref.data)):
        assert ours.dtype == theirs.dtype
        assert ours.tolist() == theirs.tolist()


def _assert_views_agree(model: Model, args: tuple, path: Path):
    # the rows HiGHS got, the constraints view and the LP text read back
    # hold the same nonzero coefficients, senses and right-hand sides
    n_rows = len(args[4])
    a = sparse.csc_matrix((args[3], args[2], args[1]),
                          shape=(n_rows, model.n_vars)).tocoo()
    from_highs = [{} for _ in range(n_rows)]
    for i, j, v in zip(a.row.tolist(), a.col.tolist(), a.data.tolist()):
        from_highs[i][j] = v
    model.write_lp(path)
    text = parse_lp(path)
    assert text.n_vars == model.n_vars
    assert len(model.constraints) == len(text.constraints) == n_rows
    bounds = zip(args[4].tolist(), args[5].tolist())
    for i, (con, read, arr, (lo, hi)) in enumerate(
            zip(model.constraints, text.constraints, from_highs, bounds)):
        assert {j: v for j, v in con.coeffs.items() if v != 0.0} == arr \
            == {j: v for j, v in read.coeffs.items() if v != 0.0}
        assert read.name == f"c{i}_{con.name}"
        assert (read.sense, read.rhs) == (con.sense, con.rhs)
        assert (lo, hi) == {"<=": (-np.inf, con.rhs), ">=": (con.rhs, np.inf),
                            "==": (con.rhs, con.rhs)}[con.sense]
    assert text.var_lb == args[6].tolist() and text.var_ub == args[7].tolist()
    assert text.var_kind == [INTEGER if k else CONTINUOUS for k in args[8]]


def _first_w1_window(scenario):
    """Run the first window of the one-year five-satellite campaign."""
    sats = [CustomerSat(f"gx{i}", lon) for i, lon in
            enumerate((-160.0, -150.0, -140.0, -130.0, -120.0))]
    stream = generate_stream(sats, scenario, horizon=360.0, seed=42)
    state, investment = horizon.initial_state(scenario)
    horizon.step(scenario, sats, stream, state, horizon.Ledger(investment),
                 horizon.RhConfig())


def test_highs_gets_scipys_csc_matrix(monkeypatch, multimodal, tmp_path):
    calls = _record_highs_inputs(monkeypatch)
    scenario, _, net, needs, init = micro_instance(3)
    assert PlanProblem(scenario, net, needs, init,
                       SolveOptions(gap=0.0)).solve().feasible
    _first_w1_window(multimodal)
    assert len(calls) >= 2 and max(len(m.constraints) for m, _ in calls) > 500
    # no rows, and nothing at all
    no_rows = Model("no-rows")
    no_rows.objective[no_rows.add_vars(["x"], [0.0], [2.0],
                                       [CONTINUOUS])] = 1.0
    assert no_rows.solve().objective == pytest.approx(2.0)
    empty = Model("empty").solve()
    assert (empty.status, empty.objective, empty.x) == ("optimal", 0.0, [])
    assert [len(args[1]) for _, args in calls[-2:]] == [2, 1]
    for model, args in calls:
        _assert_scipy_csc(model, args)
        _assert_views_agree(model, args, tmp_path / "model.lp")


def test_zero_coefficients_stay_out_of_the_matrix(monkeypatch):
    # a stored zero keeps its row, but HiGHS gets no entry for it
    calls = _record_highs_inputs(monkeypatch)
    m = Model("zeros")
    x = m.add_vars(["x", "y"], [0.0] * 2, [4.0] * 2, [CONTINUOUS] * 2)
    y = x + 1
    m.objective = {x: 1.0, y: 1.0}
    add_row(m, "c", {x: 1.0, y: 0.0}, "<=", 3.0)
    add_row(m, "zero", {y: 0.0}, ">=", -1.0)
    assert m.solve().objective == pytest.approx(7.0)
    assert [con.coeffs for con in m.constraints] == [{x: 1.0, y: 0.0},
                                                     {y: 0.0}]
    args = calls[0][1]
    assert [a.tolist() for a in args[1:4]] == [[0, 1, 1], [0], [1.0]]
    assert args[4].tolist() == [-np.inf, -1.0]
    assert args[5].tolist() == [3.0, np.inf]


def _census(model: Model) -> dict:
    """Columns per family, rows and nonzeros per row family, the order in
    which the row families first appear, and a digest of the family of
    every row in order: integers and names only, so no float formatting."""
    cols, rows, nnz = {}, {}, {}
    for key in model.keys:
        cols[key[0]] = cols.get(key[0], 0) + 1
    families = [con.name for con in model.constraints]
    for con in model.constraints:
        rows[con.name] = rows.get(con.name, 0) + 1
        nnz[con.name] = nnz.get(con.name, 0) + sum(
            1 for v in con.coeffs.values() if v != 0.0)
    return {"cols": cols, "rows": rows, "nnz": nnz,
            "first_seen": list(dict.fromkeys(families)),
            "sequence": hashlib.sha256(
                "\n".join(families).encode()).hexdigest()}


# recorded from the dict-keyed build that preceded the row store, then with
# each of the 11 curve arcs' 21 weights L and its sos2_sum and sos2_mass
# rows replaced by one burn column L and 20 chord rows sos2_seg; the rows
# that read the burn (bal_cust, bal_park, prop_avail) hold one entry for it
# instead of one per weight; then with the one start that no kept flight
# lands for left out, with its B column and the four entries of each
MICRO0_CENSUS = {
    "cols": {"Y": 18, "X": 72, "W": 23, "U": 92, "Z": 23, "L": 11, "H": 6,
             "B": 7},
    "rows": {"bal_cust": 32, "bal_park": 40, "bal_veh": 18, "cap_hold": 72,
             "cap_arc": 92, "wet_mass": 23, "mass_ub": 23, "prop_avail": 23,
             "sos2_seg": 220, "assign_once": 2, "dispatch": 7,
             "one_service": 7, "presence": 8, "tool": 7, "arrival": 6},
    "nnz": {"bal_cust": 173, "bal_park": 176, "bal_veh": 80, "cap_hold": 144,
            "cap_arc": 184, "wet_mass": 138, "mass_ub": 46, "prop_avail": 46,
            "sos2_seg": 440, "assign_once": 6, "dispatch": 18,
            "one_service": 7, "presence": 15, "tool": 14, "arrival": 21},
    "first_seen": ["bal_cust", "bal_park", "bal_veh", "cap_hold", "cap_arc",
                   "wet_mass", "mass_ub", "prop_avail", "sos2_seg",
                   "assign_once", "dispatch", "one_service", "presence",
                   "tool", "arrival"],
    "sequence": "f268e7c6773c7d1712613d5bb116479ff6d2b723d205683419e310d3188fafc7",
}
W1_FIRST_CENSUS = {
    "cols": {"Y": 56, "X": 448, "W": 3, "U": 24},
    "rows": {"bal_park": 224, "supply": 24, "bal_veh": 56, "veh_supply": 3,
             "cap_hold": 448, "cap_arc": 24, "cap_payload": 3, "sk_avail": 27},
    "nnz": {"bal_park": 931, "supply": 24, "bal_veh": 110, "veh_supply": 3,
            "cap_hold": 896, "cap_arc": 48, "cap_payload": 27, "sk_avail": 54},
    "first_seen": ["bal_park", "supply", "bal_veh", "veh_supply", "cap_hold",
                   "cap_arc", "cap_payload", "sk_avail"],
    "sequence": "3b69a0d5032dfb434e67d48c8221bd53feb23eeb01c9f171708de148a644821c",
}


# recorded before the presence rule at customer and parking nodes became
# one: a servicer starts pinned at satA and another arrives in flight at
# satB, where a need waits
PINNED_ARRIVAL_CENSUS = {
    "cols": {"Y": 52, "X": 335, "W": 45, "U": 297, "Z": 45, "L": 22, "H": 6,
             "B": 24},
    "rows": {"bal_cust": 169, "bal_park": 106, "bal_veh": 52, "cap_hold": 335,
             "cap_arc": 297, "wet_mass": 45, "mass_ub": 45, "prop_avail": 45,
             "sos2_seg": 440, "assign_once": 1, "dispatch": 24,
             "one_service": 12, "presence": 26, "tool": 24, "arrival": 6},
    "nnz": {"bal_cust": 645, "bal_park": 631, "bal_veh": 188, "cap_hold": 670,
            "cap_arc": 594, "wet_mass": 387, "mass_ub": 90, "prop_avail": 90,
            "sos2_seg": 880, "assign_once": 6, "dispatch": 76,
            "one_service": 24, "presence": 50, "tool": 48, "arrival": 20},
    "first_seen": ["bal_cust", "bal_park", "bal_veh", "cap_hold", "cap_arc",
                   "wet_mass", "mass_ub", "prop_avail", "sos2_seg",
                   "assign_once", "dispatch", "one_service", "presence",
                   "tool", "arrival"],
    "sequence": "8d9ac8aa3642b3c858ad38d732c88415a01715def4d2e22d9cf3a3e88c74f824",
}


def test_build_is_model_neutral(monkeypatch, multimodal):
    # the integer-indexed build makes the same columns and rows, in the
    # same order, as the build it replaced
    scenario, _, net, needs, init = micro_instance(0)
    model = PlanProblem(scenario, net, needs, init,
                        SolveOptions(gap=0.0)).model
    assert _census(model) == MICRO0_CENSUS
    # a committed service and an in-flight arrival at a customer
    assert _census(pinned_instance_with_arrival(multimodal).model) \
        == PINNED_ARRIVAL_CENSUS
    calls = _record_highs_inputs(monkeypatch)
    _first_w1_window(multimodal)
    assert _census(calls[0][0]) == W1_FIRST_CENSUS
