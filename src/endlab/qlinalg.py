"""Exact sparse linear algebra over the rationals.

Scalars are fractions.Fraction (always reduced, exact).  Rank, kernel and
cokernel dimensions come from fraction-free elimination over the integers:
each row is scaled by the lcm of its denominators, then rows are combined
with integer cross-multiplication and divided by their content.  Entries of
the incidence matrices this package produces are 0 or +-1, so elimination
never grows coefficients there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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

    @classmethod
    def from_rows(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {
            (i, j): Fraction(x)
            for i, row in enumerate(dense)
            for j, x in enumerate(row)
            if x
        }
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def __getitem__(self, key):
        return self.entries.get(key, Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrixQ)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def is_zero(self):
        return not self.entries

    def matmul(self, other):
        """self @ other."""
        if self.cols != other.rows:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        by_row = {}
        for (i, j), x in other.entries.items():
            by_row.setdefault(i, []).append((j, x))
        entries = {}
        for (i, k), x in self.entries.items():
            for j, y in by_row.get(k, ()):
                key = (i, j)
                entries[key] = entries.get(key, Fraction(0)) + x * y
        return SparseMatrixQ(self.rows, other.cols, entries)

    def _integer_rows(self):
        # one dict per row, scaled to integers; scaling does not change rank
        rows = [dict() for _ in range(self.rows)]
        for (i, j), x in self.entries.items():
            rows[i][j] = x
        out = []
        for row in rows:
            if not row:
                continue
            scale = lcm(*(x.denominator for x in row.values()))
            out.append({j: int(x * scale) for j, x in row.items()})
        return out

    def rank(self):
        """Rank by fraction-free integer elimination with content removal."""
        rows = self._integer_rows()
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

    def to_json(self):
        triplets = [
            [i, j, str(x)] for (i, j), x in sorted(self.entries.items())
        ]
        return {"rows": self.rows, "cols": self.cols, "entries": triplets}

    def __repr__(self):
        return f"SparseMatrixQ({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def rank_kernel_cokernel(m):
    """(rank, dim ker, dim coker) of a finite matrix, exactly."""
    r = m.rank()
    return r, m.cols - r, m.rows - r


def delta_matrix(graph):
    """Boundary map from geometric edges to vertices.

    Columns follow the sorted canonical representatives, rows the graph's
    vertex order.  The column of edge e carries +1 at its terminus and -1
    at its origin; a loop contributes a zero column.
    """
    reps = [ge.rep for ge in graph.geometric_edges()]
    entries = {}
    for j, e in enumerate(reps):
        o = graph.vertex_index(graph.origin(e))
        t = graph.vertex_index(graph.terminus(e))
        if o == t:
            continue
        entries[(t, j)] = Fraction(1)
        entries[(o, j)] = Fraction(-1)
    return SparseMatrixQ(len(graph.vertices), len(reps), entries)


def augmentation_matrix(n):
    """The 1 x n all-ones map onto the scalars."""
    return SparseMatrixQ(1, n, {(0, j): Fraction(1) for j in range(n)})


def verify_short_exact(a, b):
    """True iff 0 -> . -a-> . -b-> . -> 0 is exact.

    Checks b @ a = 0, a injective, b surjective and rank a + rank b equal
    to the middle dimension; together these force image(a) = kernel(b).
    """
    if b.cols != a.rows:
        raise ValueError(f"maps do not compose: a is {a.rows}x{a.cols}, b is {b.rows}x{b.cols}")
    if not b.matmul(a).is_zero():
        return False
    ra, rb = a.rank(), b.rank()
    return ra == a.cols and rb == b.rows and ra + rb == b.cols
