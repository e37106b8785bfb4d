"""Exact certificates of injectivity for linear maps held as tables.

Neither certificate eliminates.  A table whose columns have pairwise
distinct largest nonzero rows is triangular in the order of those rows, so
its columns are independent.  A table x with x o a the identity is a left
inverse of a, so a is injective, however x was built: a wrong x can only
fail the test.
"""

from __future__ import annotations

import numpy as np

from .exterior import Table, _composed, _equal_tables, _pair_outputs, _table


def independent_columns(table: Table, columns: int) -> bool:
    """Whether the table's inputs are exactly 0..columns-1, each with a
    nonzero entry, and their largest nonzero rows are pairwise distinct."""
    if table.src.size and int(table.src.max()) >= columns:
        return False
    lead = np.full(columns, -1, dtype=np.int64)
    np.maximum.at(lead, table.src, _pair_outputs(table))
    return bool((lead >= 0).all()) and np.unique(lead).size == columns


def is_left_inverse(x: Table, a: Table) -> bool:
    """Whether a's inputs are among 0..x.size-1 and x o a is the identity
    on them."""
    if a.src.size and int(a.src.max()) >= x.size:
        return False
    ids = np.arange(x.size)
    identity = _table(x.k, x.size, ids, ids, np.ones_like(ids), np.zeros_like(ids), 1, a.k_in)
    return _equal_tables(_composed(x, a), identity)
