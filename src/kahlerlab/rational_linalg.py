"""Exact rank over Gaussian rationals, by forward elimination on sparse rows.

A matrix is a list of rows.  A row is either a dense list of entries or a
sparse map {column: nonzero entry}; elimination always works on the sparse
form, so its cost follows the nonzeros rather than rows x columns.  Rows
enter one at a time and are cleared of the known pivot columns, lowest
first; what is left, if anything, is a new pivot row, scaled to 1 at its
first nonzero column.  A pivot row starts at its pivot, so each subtraction
only fills columns to its right, and earlier pivot rows are never touched:
the rank needs the pivot count, not the reduced row echelon form.

A block-diagonal matrix, with its rows and columns in any order, splits
into connected components: columns are joined when a row holds both.  Its
rank is the sum of the ranks of the components, each eliminated alone.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from typing import Union

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


def rank(m: Sequence[Row]) -> int:
    """The rank of m: the number of pivots of its row echelon form."""
    pivot_rows: dict[int, SparseRow] = {}
    for row in m:
        v = _sparse(row)
        while v:
            c = min(v)
            prow = pivot_rows.get(c)
            if prow is None:
                inv = v[c].inverse()
                pivot_rows[c] = {col: x * inv for col, x in v.items()}
                break
            _subtract(v, v[c], prow)
    return len(pivot_rows)


def component_rank(m: Sequence[Row]) -> int:
    """The rank of m, as the sum of the ranks of its connected components.
    Components that are the same matrix once their columns are numbered in
    order of appearance are eliminated once."""
    rows = [_sparse(row) for row in m]
    parent: dict[int, int] = {}

    def root(c: int) -> int:
        while parent.setdefault(c, c) != c:
            parent[c] = c = parent[parent[c]]
        return c

    for row in rows:
        roots = [root(c) for c in row]
        for r in roots[1:]:
            parent[r] = roots[0]
    components: dict[int, list[SparseRow]] = {}
    for row in rows:
        if row:
            components.setdefault(root(next(iter(row))), []).append(row)
    shapes = Counter()
    for part in components.values():
        label: dict[int, int] = {}
        shapes[tuple(tuple((label.setdefault(c, len(label)), v) for c, v in row.items())
                     for row in part)] += 1
    return sum(times * rank([dict(row) for row in shape]) for shape, times in shapes.items())
