"""Independent reader of the LP files that ``oosplan.lp`` writes.

The test oracle for ``Model.write_lp`` round trips: a model written to text
and read back here must solve to the same optimum as the model it came from.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Optional

from oosplan.lp import CONTINUOUS, INTEGER, Model, SolveError


def parse_lp(path: str | Path) -> Model:
    """Read back a model written by :meth:`Model.write_lp`.

    Supports the subset of the LP format the writer emits.
    """
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("\\")]
    model = Model(name="parsed")
    section = None
    bounds: list[tuple[str, float, Optional[float]]] = []
    generals: set[str] = set()
    constrs: list[tuple[str, dict[str, float], str, float]] = []
    objective: dict[str, float] = {}

    token_re = re.compile(
        r"(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?"
        r"|\.[0-9]+(?:[eE][-+]?[0-9]+)?)"
        r"|(?P<var>[A-Za-z_][A-Za-z0-9_.]*)"
        r"|(?P<op>[-+])")

    def parse_linexpr(expr: str) -> dict[str, float]:
        out: dict[str, float] = {}
        sign, coeff = 1.0, None
        for m in token_re.finditer(expr):
            if m.lastgroup == "op":
                sign = 1.0 if m.group() == "+" else -1.0
                coeff = None
            elif m.lastgroup == "num":
                coeff = float(m.group())
            else:
                val = coeff if coeff is not None else 1.0
                out[m.group()] = out.get(m.group(), 0.0) + sign * val
                sign, coeff = 1.0, None
        return out

    for ln in lines:
        stripped = ln.strip()
        low = stripped.lower()
        if low in ("maximize", "minimize", "subject to", "bounds",
                   "generals", "binaries", "end"):
            section = low
            continue
        if section == "maximize":
            body = stripped.split(":", 1)[-1]
            objective.update(parse_linexpr(body))
        elif section == "subject to":
            nm, body = stripped.split(":", 1)
            m = re.match(r"(.*?)(<=|>=|=)\s*([-+0-9.eE]+)\s*$", body)
            if not m:
                raise SolveError(f"cannot parse constraint: {stripped}")
            sense = {"<=": "<=", ">=": ">=", "=": "=="}[m.group(2)]
            constrs.append((nm.strip(), parse_linexpr(m.group(1)), sense,
                            float(m.group(3))))
        elif section == "bounds":
            m = re.match(r"([-+0-9.eE]+)\s*<=\s*(\S+)(?:\s*<=\s*([-+0-9.eE]+))?",
                         stripped)
            if not m:
                raise SolveError(f"cannot parse bound: {stripped}")
            bounds.append((m.group(2), float(m.group(1)),
                           float(m.group(3)) if m.group(3) else None))
        elif section == "generals":
            generals.add(stripped)

    cols: dict[str, int] = {}   # name -> the index add_var returned
    for nm, lb, ub in bounds:
        cols[nm] = model.add_var(nm, lb=lb, ub=math.inf if ub is None else ub,
                                 kind=INTEGER if nm in generals else CONTINUOUS)

    def col(nm: str) -> int:
        if nm not in cols:
            cols[nm] = model.add_var(nm)
        return cols[nm]
    for nm, coeff in objective.items():
        model.add_objective(col(nm), coeff)
    for cname, coeffs, sense, rhs in constrs:
        model.add_constr(cname, {col(nm): coeff for nm, coeff in coeffs.items()},
                         sense, rhs)
    return model
