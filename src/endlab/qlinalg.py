"""Exact sparse matrices over the rationals, ranked by integer elimination.

Scalars are fractions.Fraction (always reduced, exact).  The rank comes from
fraction-free elimination over the integers: each row is scaled by the lcm
of its denominators, then rows are combined with integer
cross-multiplication and divided by their content.  No code path of the
lab ranks a matrix today: the boundary map of a graph needs no
elimination, as its ranks are read off a component count
(serre_graphs.boundary_dims), and the tests keep the elimination as the
reference for those counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# kept for its tests and the benchmark trace, which wraps rank by name
class SparseMatrixQ:
    """rows x cols matrix storing only nonzero Fraction entries."""

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        for (i, j), x in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            x = Fraction(x)
            if x:
                self.entries[(i, j)] = x

    def rank(self):
        """Rank by fraction-free integer elimination with content removal."""
        by_row = [dict() for _ in range(self.rows)]
        for (i, j), x in self.entries.items():
            by_row[i][j] = x
        # one dict per nonzero row, scaled to integers; scaling does not change rank
        rows = []
        for row in by_row:
            if row:
                scale = lcm(*(x.denominator for x in row.values()))
                rows.append({j: int(x * scale) for j, x in row.items()})
        rank = 0
        for col in range(self.cols):
            pivot_idx = None
            for idx in range(rank, len(rows)):
                if rows[idx].get(col):
                    pivot_idx = idx
                    break
            if pivot_idx is None:
                continue
            rows[rank], rows[pivot_idx] = rows[pivot_idx], rows[rank]
            pivot = rows[rank]
            p = pivot[col]
            for idx in range(rank + 1, len(rows)):
                row = rows[idx]
                c = row.get(col)
                if not c:
                    continue
                new = {}
                for j, x in row.items():
                    new[j] = p * x
                for j, x in pivot.items():
                    val = new.get(j, 0) - c * x
                    if val:
                        new[j] = val
                    else:
                        new.pop(j, None)
                if new:
                    content = 0
                    for x in new.values():
                        content = gcd(content, x)
                    if content > 1:
                        new = {j: x // content for j, x in new.items()}
                rows[idx] = new
            rank += 1
            if rank == len(rows):
                break
        return rank
