"""An exact certificate that a table's columns are independent.

It does not eliminate.  A table whose columns have pairwise distinct
largest nonzero rows is triangular in the order of those rows, so its
columns are independent.  (A left inverse x of a table a is certified in
`harness` as the table identity x o a = id.)
"""

from __future__ import annotations

import numpy as np

from .exterior import Table, _pair_outputs


def independent_columns(table: Table, columns: int) -> bool:
    """Whether the table's inputs are exactly 0..columns-1, each with a
    nonzero entry, and their largest nonzero rows are pairwise distinct."""
    if table.src.size and int(table.src.max()) >= columns:
        return False
    lead = np.full(columns, -1, dtype=np.int64)
    np.maximum.at(lead, table.src, _pair_outputs(table))
    return bool((lead >= 0).all()) and np.unique(lead).size == columns
