"""Independent reader of the LP files that ``oosplan.lp`` writes.

The test oracle for ``Model.write_lp`` round trips: a model written to text
and read back here must solve to the same optimum as the model it came from.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Optional

import numpy as np

from oosplan.lp import CONTINUOUS, INTEGER, Model, SolveError


def parse_lp(path: str | Path) -> Model:
    """Read back a model written by :meth:`Model.write_lp`.

    Supports the subset of the LP format the writer emits. A constant term
    of the objective is read into ``Model.offset``; one on a row's side is
    moved to its right-hand side.
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
    offset = 0.0

    token_re = re.compile(
        r"(?P<num>[0-9]+(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?"
        r"|\.[0-9]+(?:[eE][-+]?[0-9]+)?)"
        r"|(?P<var>[A-Za-z_][A-Za-z0-9_.]*)"
        r"|(?P<op>[-+])")

    def parse_linexpr(expr: str) -> tuple[dict[str, float], float]:
        """The terms of ``expr`` by name, and its constant: a number that
        no name follows."""
        out: dict[str, float] = {}
        constant = 0.0
        sign, coeff = 1.0, None
        for m in token_re.finditer(expr):
            if m.lastgroup == "op":
                if coeff is not None:
                    constant += sign * coeff
                sign = 1.0 if m.group() == "+" else -1.0
                coeff = None
            elif m.lastgroup == "num":
                coeff = float(m.group())
            else:
                val = coeff if coeff is not None else 1.0
                out[m.group()] = out.get(m.group(), 0.0) + sign * val
                sign, coeff = 1.0, None
        if coeff is not None:
            constant += sign * coeff
        return out, constant

    for ln in lines:
        stripped = ln.strip()
        low = stripped.lower()
        if low in ("maximize", "minimize", "subject to", "bounds",
                   "generals", "binaries", "end"):
            section = low
            continue
        if section == "maximize":
            terms, constant = parse_linexpr(stripped.split(":", 1)[-1])
            objective.update(terms)
            offset += constant
        elif section == "subject to":
            nm, body = stripped.split(":", 1)
            m = re.match(r"(.*?)(<=|>=|=)\s*([-+0-9.eE]+)\s*$", body)
            if not m:
                raise SolveError(f"cannot parse constraint: {stripped}")
            sense = {"<=": "<=", ">=": ">=", "=": "=="}[m.group(2)]
            terms, constant = parse_linexpr(m.group(1))
            constrs.append((nm.strip(), terms, sense,
                            float(m.group(3)) - constant))
        elif section == "bounds":
            m = re.match(r"([-+0-9.eE]+)\s*<=\s*(\S+)(?:\s*<=\s*([-+0-9.eE]+))?",
                         stripped)
            if not m:
                raise SolveError(f"cannot parse bound: {stripped}")
            bounds.append((m.group(2), float(m.group(1)),
                           float(m.group(3)) if m.group(3) else None))
        elif section == "generals":
            generals.add(stripped)

    # the columns in the order of the Bounds section, then any name that
    # only the objective or a row holds, unbounded above and continuous
    rows = [coeffs for _, coeffs, _, _ in constrs]
    cols = {nm: j for j, (nm, _, _) in enumerate(bounds)}
    for terms in [objective, *rows]:
        for nm in terms:
            cols.setdefault(nm, len(cols))
    extra = len(cols) - len(bounds)
    model.add_vars(list(cols),
                   [lb for _, lb, _ in bounds] + [0.0] * extra,
                   [math.inf if ub is None else ub for _, _, ub in bounds]
                   + [math.inf] * extra,
                   [INTEGER if nm in generals else CONTINUOUS
                    for nm in cols])
    model.objective = {cols[nm]: coeff for nm, coeff in objective.items()}
    model.offset = offset
    entries = (np.array([r for r, c in enumerate(rows) for _ in c],
                        dtype=np.intp),
               np.array([cols[nm] for c in rows for nm in c], dtype=np.intp),
               np.array([v for c in rows for v in c.values()], dtype=float))
    model.add_rows([c[0] for c in constrs], [c[2] for c in constrs],
                   [c[3] for c in constrs], entries)
    return model
