"""Reference oracle for the projection routine of ``almterm.lp``.

Equality substitution followed by Fourier-Motzkin elimination over
``fractions.Fraction`` rows, with duplicate and dominated rows pruned after
every step: the straightforward form of what ``almterm.lp.project_constraints``
does on primitive integer rows.  Both choose the same equality to substitute,
the same variable to eliminate and the same rows to keep, so on equal input
the inequalities they return are equal row for row once scaled to primitive
form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from almterm.model import EQ, GEQ
from linear import LinearConstraint, row_constraint

ZERO = Fraction(0)

Row = tuple[dict[int, Fraction], Fraction]  # coeffs . x >= bound


def _canon(coeffs: dict[int, Fraction], bound: Fraction) -> Row:
    """Scale a row to a primitive integer coefficient vector (sign kept)."""
    denom_lcm = 1
    for c in coeffs.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    g = 0
    for c in coeffs.values():
        g = gcd(g, abs(c.numerator * (denom_lcm // c.denominator)))
    factor = Fraction(denom_lcm, g or 1)
    return ({v: c * factor for v, c in coeffs.items()}, bound * factor)


class _Contradiction(Exception):
    pass


def _prune(rows: list[Row]) -> list[Row]:
    """Drop trivial rows, duplicates, and dominated rows (same direction,
    weaker bound).  Raises _Contradiction on ``0 >= positive``."""
    best: dict[tuple, Row] = {}
    for coeffs, bound in rows:
        if not coeffs:
            if bound > 0:
                raise _Contradiction
            continue
        canon_coeffs, canon_bound = _canon(coeffs, bound)
        key = tuple(sorted(canon_coeffs.items()))
        old = best.get(key)
        if old is None or old[1] < canon_bound:
            best[key] = (canon_coeffs, canon_bound)
    return list(best.values())


def _eliminate(rows: list[Row], var: int) -> list[Row]:
    """One Fourier-Motzkin step: combine rows of opposite sign on ``var``."""
    pos: list[Row] = []
    neg: list[Row] = []
    out: list[Row] = []
    for coeffs, bound in rows:
        c = coeffs.get(var)
        if not c:
            out.append((coeffs, bound))
        elif c > 0:
            pos.append((coeffs, bound))
        else:
            neg.append((coeffs, bound))
    for pc, pb in pos:
        a = pc[var]
        for nc, nb in neg:
            b = -nc[var]
            merged: dict[int, Fraction] = {}
            for v, c in pc.items():
                if v != var:
                    merged[v] = c * b
            for v, c in nc.items():
                if v == var:
                    continue
                s = merged.get(v, ZERO) + c * a
                if s:
                    merged[v] = s
                elif v in merged:
                    del merged[v]
            out.append((merged, pb * b + nb * a))
    return out


def _best_elimination_order(rows: list[Row], candidates: set[int]) -> int:
    """Next variable to eliminate: smallest pos*neg product (least growth)."""
    best_var = -1
    best_score = None
    for v in sorted(candidates):
        p = n = 0
        for coeffs, _ in rows:
            c = coeffs.get(v)
            if c:
                if c > 0:
                    p += 1
                else:
                    n += 1
        score = p * n
        if best_score is None or score < best_score:
            best_score = score
            best_var = v
    return best_var


def project_rows(rows: list[Row], keep: set[int]) -> list[Row] | None:
    """Eliminate all variables outside ``keep``; None means infeasible."""
    try:
        rows = _prune(rows)
        drop = {v for coeffs, _ in rows for v in coeffs} - keep
        while drop:
            v = _best_elimination_order(rows, drop)
            drop.discard(v)
            rows = _prune(_eliminate(rows, v))
            drop &= {v for coeffs, _ in rows for v in coeffs}
    except _Contradiction:
        return None
    return rows


def project_constraints(
    constraints: Iterable[LinearConstraint], keep: Iterable[int]
) -> list[LinearConstraint] | None:
    """Existentially project mixed =/>= constraints onto ``keep``: substitute
    equalities for eliminated variables first, then Fourier-Motzkin.  None
    when the input is unsatisfiable."""
    keep_set = set(keep)
    eqs: list[Row] = []
    ineqs: list[Row] = []
    for c in constraints:
        g = c.gap()
        row = (dict(g.coeffs), -g.const)
        (eqs if c.rel == EQ else ineqs).append(row)

    changed = True
    while changed:
        changed = False
        for k, (coeffs, bound) in enumerate(eqs):
            var = next((v for v in coeffs if v not in keep_set), None)
            if var is None:
                continue
            a = coeffs[var]
            sub = {v: -c / a for v, c in coeffs.items() if v != var}
            sub_const = bound / a  # var = sub_const + sub . rest
            del eqs[k]

            def apply(rows: list[Row]) -> list[Row]:
                out = []
                for cs, bd in rows:
                    f = cs.get(var)
                    if not f:
                        out.append((cs, bd))
                        continue
                    merged = {v: c for v, c in cs.items() if v != var}
                    for v, c in sub.items():
                        s = merged.get(v, ZERO) + f * c
                        if s:
                            merged[v] = s
                        elif v in merged:
                            del merged[v]
                    out.append((merged, bd - f * sub_const))
                return out

            eqs = apply(eqs)
            ineqs = apply(ineqs)
            changed = True
            break

    for coeffs, bound in eqs:
        if not coeffs and bound != 0:
            return None

    ineq_rows = project_rows(ineqs, keep_set)
    if ineq_rows is None:
        return None

    out = [row_constraint(c, b, EQ) for c, b in eqs if c]
    out += [row_constraint(c, b, GEQ) for c, b in ineq_rows]
    return out
