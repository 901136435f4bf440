import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from lp_text import parse_lp

import oosplan
from oosplan import lp
from oosplan.lp import BINARY, INTEGER, Model, SolveError, read_solution


def knapsack() -> Model:
    m = Model("knapsack")
    values = [10.0, 13.0, 7.0, 8.0]
    weights = [3.0, 4.0, 2.0, 3.0]
    for i, v in enumerate(values):
        idx = m.add_var(f"x[{i}]", kind=BINARY)
        m.add_objective(idx, v)
    m.add_constr("cap", {i: w for i, w in enumerate(weights)}, "<=", 7.0)
    return m


def test_solve_knapsack():
    res = knapsack().solve()
    assert res.status == "optimal"
    assert res.objective == pytest.approx(23.0)
    assert res.values["x[0]"] == pytest.approx(1.0)
    assert res.values["x[1]"] == pytest.approx(1.0)


def test_continuous_and_integer():
    m = Model()
    x = m.add_var("x", ub=10.0)
    y = m.add_var("y", ub=10.0, kind=INTEGER)
    m.add_objective(x, 1.0)
    m.add_objective(y, 1.0)
    m.add_constr("c", {x: 1.0, y: 2.0}, "<=", 8.5)
    res = m.solve()
    assert res.status == "optimal"
    assert res.values["y"] == pytest.approx(round(res.values["y"]))
    assert res.objective == pytest.approx(8.5)


def test_infeasible_status():
    m = Model()
    x = m.add_var("x", ub=1.0)
    m.add_constr("c", {x: 1.0}, ">=", 2.0)
    res = m.solve()
    assert res.status == "infeasible"
    assert not res.feasible
    assert res.objective is None


def test_unbounded_status():
    m = Model()
    x = m.add_var("x")
    m.add_objective(x, 1.0)
    res = m.solve()
    assert res.status == "unbounded"


def test_fix_and_duplicate():
    m = Model()
    x = m.add_var("x", ub=5.0)
    m.add_objective(x, 1.0)
    m.fix(x, 2.5)
    assert m.solve().objective == pytest.approx(2.5)
    with pytest.raises(ValueError):
        m.add_var("x")
    with pytest.raises(ValueError):
        m.add_constr("bad", {x: 1.0}, "=<", 0.0)


def test_lp_round_trip(tmp_path):
    m = Model("rt")
    x = m.add_var("x[a|0]", ub=4.0)
    y = m.add_var("y", ub=3.0, kind=INTEGER)
    z = m.add_var("z", kind=BINARY)
    m.add_objective(x, 1.5)
    m.add_objective(y, 2.0)
    m.add_objective(z, -1.0)
    m.add_constr("c1", {x: 1.0, y: 1.0}, "<=", 5.25)
    m.add_constr("c2", {x: 2.0, z: -1e-5}, ">=", 0.5)
    m.add_constr("c3", {y: 1.0, z: 1.0}, "==", 2.0)
    path = tmp_path / "model.lp"
    m.write_lp(path)
    again = parse_lp(path)
    r1, r2 = m.solve(), again.solve()
    assert r1.status == r2.status == "optimal"
    assert r1.objective == pytest.approx(r2.objective, rel=1e-9)


def test_read_solution(tmp_path):
    p = tmp_path / "model.sol"
    p.write_text("# comment line\nx0_x_a_0_ 1.5\nx1_y 2\n")
    values = read_solution(p, ["x[a|0]", "y", "z"])
    assert values == {"x[a|0]": 1.5, "y": 2.0, "z": 0.0}
    p.write_text("x3_w 1\n")
    with pytest.raises(SolveError, match="column 3"):
        read_solution(p, ["x[a|0]", "y", "z"])


def test_lp_names_injective(tmp_path):
    # two display names that sanitize to the same text stay two columns
    m = Model("clash")
    a = m.add_var("x[a|b]", ub=1.0)
    b = m.add_var("x[a_b]", ub=2.0)
    m.add_objective(a, 1.0)
    m.add_objective(b, 3.0)
    m.add_constr("cap", {a: 1.0, b: 1.0}, "<=", 2.5)
    path = tmp_path / "clash.lp"
    m.write_lp(path)
    again = parse_lp(path)
    assert again.n_vars == 2
    res = m.solve_subprocess(_stub_solver(tmp_path))
    assert res.values == {"x[a|b]": pytest.approx(0.5),
                          "x[a_b]": pytest.approx(2.0)}
    assert res.objective == pytest.approx(6.5)


def test_time_limit_without_incumbent_is_not_feasible():
    rng = np.random.default_rng(0)
    m = Model("knapsack30")
    cols = [m.add_var(("x", j), kind=BINARY) for j in range(200)]
    for j in cols:
        m.add_objective(j, float(rng.uniform(1.0, 10.0)))
    for r in range(30):
        m.add_constr("cap", {j: float(rng.uniform(1.0, 10.0)) for j in cols},
                     "<=", 100.0)
    res = m.solve(time_limit=1e-9)
    assert res.status == "time-limit"
    assert not res.feasible
    assert res.values == {} and res.objective is None


def _stub_solver(tmp_path, integer_offset: float = 0.0) -> str:
    # external backend stub: parse the LP with the test reader, solve with
    # HiGHS, emit its status line and a plain name/value solution file,
    # with every integer
    # column moved by integer_offset; it imports the same oosplan as this
    # test, wherever that comes from
    src = str(Path(oosplan.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    script = tmp_path / "solver.py"
    script.write_text(
        "import sys\n"
        f"sys.path[:0] = [{src!r}, {tests!r}]\n"
        "from lp_text import parse_lp\n"
        "from oosplan.lp import CONTINUOUS\n"
        "model = parse_lp(sys.argv[1])\n"
        "res = model.solve()\n"
        "with open(sys.argv[2], 'w') as fh:\n"
        "    fh.write(f'status {res.status}\\n')\n"
        "    for (name, val), kind in zip(res.values.items(),\n"
        "                                 model.var_kind):\n"
        "        if kind != CONTINUOUS:\n"
        f"            val += {integer_offset!r}\n"
        "        fh.write(f'{name} {val!r}\\n')\n")
    return f"{sys.executable} {script} {{lp}} {{sol}}"


def test_solve_subprocess_round_trip(tmp_path):
    m = knapsack()
    res = m.solve_subprocess(_stub_solver(tmp_path))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(23.0)


def _copying_backend(tmp_path, text: str) -> str:
    # external backend stub that writes a prepared solution file
    prepared = tmp_path / "prepared.sol"
    prepared.write_text(text)
    script = tmp_path / "copy.py"
    script.write_text("import shutil, sys\n"
                      f"shutil.copy({str(prepared)!r}, sys.argv[1])\n")
    return f"{sys.executable} {script} {{sol}}"


def test_subprocess_status_comes_from_the_solution_file(tmp_path):
    m = knapsack()
    values = "x0_x_0_ 1\nx1_x_1_ 1\n"
    res = m.solve_subprocess(_copying_backend(tmp_path, values))
    assert res.status == "unknown"
    assert res.objective == pytest.approx(23.0)
    res = m.solve_subprocess(
        _copying_backend(tmp_path, "status time-limit\n" + values))
    assert res.status == "time-limit" and res.feasible
    res = m.solve_subprocess(_copying_backend(tmp_path, "status infeasible\n"))
    assert res.status == "infeasible"
    assert not res.feasible and res.values == {}


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
    ours = lp.milp(c, sparse.csc_matrix(a), *args, 0.0, time_limit)
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
    x = m.add_var("x", ub=4.0)
    m.add_objective(x, 1.0)
    res = m.solve()
    assert res.status == "optimal" and res.objective == pytest.approx(4.0)
    assert res.gap is None and res.dual_bound is None and res.nodes is None


def test_status_four_raises():
    m = Model()
    x = m.add_var("x")
    y = m.add_var("y", kind=INTEGER)
    m.add_objective(x, 1.0)
    m.add_constr("c", {x: 1.0, y: -1.0}, ">=", 0.0)
    with pytest.raises(SolveError, match="infeasible or unbounded"):
        m.solve()
    with pytest.raises(SolveError):
        Model("empty").solve()


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


def test_presolve_runs_without_probing(monkeypatch):
    made = []

    class Recorded(lp.highs._Highs):
        def __init__(self):
            super().__init__()
            made.append(self)
    monkeypatch.setattr(lp.highs, "_Highs", Recorded)
    assert knapsack().solve().objective == pytest.approx(23.0)
    assert len(made) == 1
    _, rules_off = made[0].getOptionValue("presolve_rule_off")
    _, presolve = made[0].getOptionValue("presolve")
    assert rules_off == lp.PROBING_OFF == 1 << 15
    assert presolve != "off"
