"""Exact sparse linear algebra over the integers.

Matrices store their nonzero entries as given: Python ints throughout the
package, though ``Fraction`` entries work too.  ``SpanBasis`` keeps a
subspace of Q^dim in reduced echelon form with primitive integer rows
(content 1, positive pivot), which keeps elimination inside integer
arithmetic and makes the stored form canonical: two bases are equal exactly
when they span the same subspace.  A rational row is cleared of its
denominators once, on the way in; ``nullspace`` returns primitive integer
vectors.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class SparseMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Mapping[tuple[int, int], int | Fraction] | None = None,
    ):
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r}, {c}) outside {rows} x {cols}")
            if v:
                clean[(r, c)] = v
        self.entries = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    def row_dicts(self) -> dict[int, dict[int, int | Fraction]]:
        """Nonzero rows as {row: {col: value}}."""
        out: dict[int, dict[int, int | Fraction]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _cancel(row: dict[int, int], rp: dict[int, int], p: int) -> None:
    """Clear column p of ``row`` with the row ``rp`` whose pivot is p, in
    integers, and leave ``row`` primitive."""
    a, c = rp[p], row[p]
    g = math.gcd(a, c)
    am, cm = a // g, c // g
    if am != 1:
        for j in row:
            row[j] *= am
    for j, vj in rp.items():
        nv = row.get(j, 0) - cm * vj
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)
    _primitive(row)


class SpanBasis:
    """A subspace of Q^dim held in reduced echelon form.

    Rows are stored as primitive integer dicts keyed by their pivot column,
    with positive pivot entry, and are fully reduced against one another.
    That form is unique for a given subspace, so structural equality of two
    bases is span equality.  ``insert`` mutates.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError(f"need dim >= 0, got {dim}")
        self.dim = dim
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def _int_row(self, vec: Mapping[int, int | Fraction]) -> dict[int, int]:
        """The primitive integer row on the line of ``vec``; the one place a
        rational row is cleared of its denominators."""
        row: dict[int, int | Fraction] = {}
        rational = False
        denom = 1
        for i, v in vec.items():
            if not 0 <= i < self.dim:
                raise ValueError(f"index {i} outside 0..{self.dim - 1}")
            if not v:
                continue
            if type(v) is not int:
                v = Fraction(v)
                denom = math.lcm(denom, v.denominator)
                rational = True
            row[i] = v
        if rational:
            row = {i: int(v * denom) for i, v in row.items()}
        return _primitive(row) if row else row

    def _eliminate(self, row: dict[int, int]) -> dict[int, int]:
        # Reduced rows never contain another row's pivot, so one pass over the
        # pivots initially present in ``row`` is a complete reduction.
        rows = self._rows
        for p in sorted(k for k in row if k in rows):
            _cancel(row, rows[p], p)
        return row

    def insert(self, vec) -> bool:
        """Add a vector to the span; True if the dimension grew."""
        row = self._eliminate(self._int_row(vec))
        if not row:
            return False
        piv = min(row)
        if row[piv] < 0:
            for j in row:
                row[j] = -row[j]
        for rq in self._rows.values():
            if piv in rq:
                _cancel(rq, row, piv)
        self._rows[piv] = row
        return True

    def contains(self, vec) -> bool:
        return not self._eliminate(self._int_row(vec))

    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def int_rows(self) -> list[dict[int, int]]:
        """The primitive integer rows, in pivot order; treat as read-only."""
        return [self._rows[p] for p in sorted(self._rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpanBasis)
            and self.dim == other.dim
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"SpanBasis(dim={self.dim}, dimension={self.dimension})"


def apply_map(tau: Sequence[int], vec: Mapping[int, int]) -> dict[int, int]:
    """The vector with each coordinate i moved to ``tau[i]``."""
    out: dict[int, int] = {}
    for i, c in vec.items():
        j = tau[i]
        acc = out.get(j, 0) + c
        if acc:
            out[j] = acc
        else:
            out.pop(j, None)
    return out


def saturate(
    dim: int, maps: Sequence[Sequence[int]], seeds: Iterable[Mapping[int, int]]
) -> SpanBasis:
    """The smallest subspace of Q^dim that contains ``seeds`` and is closed
    under every index map in ``maps``.

    Breadth-first: each vector that grew the span is queued once, and its
    image under every map is inserted when it leaves the queue.  The queued
    vectors span the basis, so once the queue is empty the span is closed.
    """
    basis = SpanBasis(dim)
    queue = deque(vec for vec in seeds if basis.insert(vec))
    while queue:
        vec = queue.popleft()
        for tau in maps:
            image = apply_map(tau, vec)
            if basis.insert(image):
                queue.append(image)
    return basis


def row_space(m: SparseMatrix) -> SpanBasis:
    basis = SpanBasis(m.cols)
    rows = m.row_dicts()
    # Insert sparse rows first; it keeps the echelon rows short.
    for r in sorted(rows, key=lambda r: (len(rows[r]), r)):
        basis.insert(rows[r])
        if basis.dimension == m.cols:
            break
    return basis


def nullspace(m: SparseMatrix) -> list[dict[int, int]]:
    """A basis of {x : m x = 0}: one primitive integer vector per non-pivot
    column j, positive at j and zero at every other non-pivot column."""
    basis = row_space(m)
    rows = dict(zip(basis.pivots(), basis.int_rows()))
    # the echelon rows meeting each non-pivot column, as (pivot, pivot entry, entry)
    hits: dict[int, list[tuple[int, int, int]]] = {}
    for p, rp in rows.items():
        a = rp[p]
        for j, c in rp.items():
            if j != p:
                hits.setdefault(j, []).append((p, a, c))
    out = []
    for j in range(m.cols):
        if j in rows:
            continue
        col = hits.get(j, ())
        scale = math.lcm(*(a for _, a, _ in col))
        x = {j: scale}
        for p, a, c in col:
            x[p] = -c * (scale // a)
        out.append(_primitive(x))
    return out
