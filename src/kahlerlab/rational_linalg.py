"""Exact rank over Gaussian rationals, by elimination on sparse rows.

A matrix is a list of rows.  A row is either a dense list of entries or a
sparse map {column: nonzero entry}; elimination always works on the sparse
form, so its cost follows the nonzeros rather than rows x columns.  Pivots
are the first nonzero column of each reduced row; the arithmetic is exact,
so no pivoting heuristic is needed, and because the reduced row echelon
form is unique the results do not depend on the order of the row updates.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from .exterior import GaussRational

Row = Union[Sequence[GaussRational], Mapping[int, GaussRational]]
SparseRow = dict[int, GaussRational]


def _sparse(row: Row) -> SparseRow:
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    return {c: v for c, v in items if v}


def _subtract(row: SparseRow, f: GaussRational, pivot_row: SparseRow) -> None:
    """row -= f * pivot_row, in place, dropping entries that cancel."""
    for c, v in pivot_row.items():
        acc = row.get(c)
        if acc is None:
            row[c] = -(f * v)
        else:
            acc = acc - f * v
            if acc:
                row[c] = acc
            else:
                del row[c]


def _reduced(m: Sequence[Row]) -> tuple[list[SparseRow], list[int]]:
    """Nonzero rows of the reduced row echelon form of m, and their pivots.

    Rows enter one at a time: each is cleared of the pivot columns found so
    far, and if anything is left its first nonzero column becomes a new
    pivot, which is then cleared from the earlier pivot rows.
    """
    pivot_rows: dict[int, SparseRow] = {}
    for row in m:
        v = _sparse(row)
        for p in [c for c in v if c in pivot_rows]:
            f = v.get(p)
            if f:
                _subtract(v, f, pivot_rows[p])
        if not v:
            continue
        c = min(v)
        inv = v[c].inverse()
        v = {col: x * inv for col, x in v.items()}
        for prow in pivot_rows.values():
            f = prow.get(c)
            if f:
                _subtract(prow, f, v)
        pivot_rows[c] = v
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def rank(m: Sequence[Row]) -> int:
    return len(_reduced(m)[1])
