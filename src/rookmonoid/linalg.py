"""Exact sparse linear algebra over the rationals.

Vectors and matrices store only nonzero ``Fraction`` entries.  ``SpanBasis``
keeps a subspace in reduced echelon form; internally its rows are primitive
integer vectors (content 1, positive pivot), which keeps elimination inside
fast integer arithmetic and makes the stored form canonical: two bases are
equal exactly when they span the same subspace.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping


def _clean(entries: Mapping[int, Fraction | int], dim: int) -> dict[int, Fraction]:
    out = {}
    for i, v in entries.items():
        if not 0 <= i < dim:
            raise ValueError(f"index {i} outside 0..{dim - 1}")
        v = Fraction(v)
        if v:
            out[i] = v
    return out


class SparseVector:
    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[int, Fraction | int] | None = None):
        self.dim = dim
        self.entries = _clean(entries or {}, dim)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseVector)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseVector({self.dim}, {self.entries!r})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "entries": {str(i): str(v) for i, v in sorted(self.entries.items())}}

    @classmethod
    def from_json(cls, obj: dict) -> "SparseVector":
        return cls(obj["dim"], {int(i): Fraction(v) for i, v in obj["entries"].items()})


class SparseMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Mapping[tuple[int, int], Fraction | int] | None = None,
    ):
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r}, {c}) outside {rows} x {cols}")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    def row_dicts(self) -> dict[int, dict[int, Fraction]]:
        """Nonzero rows as {row: {col: value}}."""
        out: dict[int, dict[int, Fraction]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def to_triplet_text(self) -> str:
        """One line per entry: ``row col value`` in row-major order."""
        lines = [f"{self.rows} {self.cols}"]
        for (r, c), v in sorted(self.entries.items()):
            lines.append(f"{r} {c} {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_triplet_text(cls, text: str) -> "SparseMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows, cols = map(int, lines[0].split())
        entries = {}
        for ln in lines[1:]:
            r, c, v = ln.split()
            entries[(int(r), int(c))] = Fraction(v)
        return cls(rows, cols, entries)


def from_rows(rows: Iterable[Iterable[Fraction | int]]) -> SparseMatrix:
    dense = [list(row) for row in rows]
    nrows = len(dense)
    ncols = len(dense[0]) if dense else 0
    entries = {
        (r, c): v
        for r, row in enumerate(dense)
        for c, v in enumerate(row)
        if Fraction(v)
    }
    return SparseMatrix(nrows, ncols, entries)


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.cols} vs {b.rows}")
    b_rows = b.row_dicts()
    out: dict[tuple[int, int], Fraction] = {}
    for (r, k), va in a.entries.items():
        row_k = b_rows.get(k)
        if not row_k:
            continue
        for c, vb in row_k.items():
            key = (r, c)
            acc = out.get(key, 0) + va * vb
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return SparseMatrix(a.rows, b.cols, out)


def mat_vec(m: SparseMatrix, v: SparseVector) -> SparseVector:
    if m.cols != v.dim:
        raise ValueError(f"shape mismatch: {m.cols} vs {v.dim}")
    out: dict[int, Fraction] = {}
    for (r, c), mv in m.entries.items():
        xv = v.entries.get(c)
        if xv is None:
            continue
        acc = out.get(r, 0) + mv * xv
        if acc:
            out[r] = acc
        else:
            out.pop(r, None)
    return SparseVector(m.rows, out)


def _gcd_all(values) -> int:
    return reduce(math.gcd, values, 0)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = _gcd_all(row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


class SpanBasis:
    """A subspace of Q^dim held in reduced echelon form.

    Rows are stored as primitive integer dicts keyed by their pivot column,
    with positive pivot entry, and are fully reduced against one another.
    That form is unique for a given subspace, so structural equality of two
    bases is span equality.  ``insert`` mutates; ``copy`` first to keep the
    original.
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

    def _int_row(self, vec) -> dict[int, int]:
        if isinstance(vec, SparseVector):
            if vec.dim != self.dim:
                raise ValueError(f"dimension mismatch: {vec.dim} vs {self.dim}")
            vec = vec.entries
        kept: dict[int, Fraction | int] = {}
        denom = 1
        for i, v in vec.items():
            if not 0 <= i < self.dim:
                raise ValueError(f"index {i} outside 0..{self.dim - 1}")
            if not isinstance(v, int):
                v = Fraction(v)
                denom = denom * v.denominator // math.gcd(denom, v.denominator)
            if v:
                kept[i] = v
        row = {i: int(v * denom) for i, v in kept.items()}
        return _primitive(row) if row else row

    def _eliminate(self, row: dict[int, int]) -> dict[int, int]:
        # Reduced rows never contain another row's pivot, so one pass over the
        # pivots initially present in ``row`` is a complete reduction.
        rows = self._rows
        for p in sorted(k for k in row if k in rows):
            c = row.get(p)
            if not c:
                continue
            rp = rows[p]
            a = rp[p]
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
            if row:
                _primitive(row)
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
        a = row[piv]
        for q, rq in self._rows.items():
            c = rq.get(piv)
            if not c:
                continue
            g = math.gcd(a, c)
            am, cm = a // g, c // g
            if am != 1:
                for j in rq:
                    rq[j] *= am
            for j, vj in row.items():
                nv = rq.get(j, 0) - cm * vj
                if nv:
                    rq[j] = nv
                else:
                    rq.pop(j, None)
            _primitive(rq)
        self._rows[piv] = row
        return True

    def contains(self, vec) -> bool:
        return not self._eliminate(self._int_row(vec))

    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def rows(self) -> list[SparseVector]:
        """Echelon rows over Q, each scaled so its pivot entry is 1."""
        out = []
        for p in sorted(self._rows):
            rp = self._rows[p]
            a = rp[p]
            out.append(SparseVector(self.dim, {j: Fraction(v, a) for j, v in rp.items()}))
        return out

    def int_rows(self) -> list[dict[int, int]]:
        """Copies of the primitive integer rows, in pivot order."""
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    def copy(self) -> "SpanBasis":
        dup = SpanBasis(self.dim)
        dup._rows = {p: dict(r) for p, r in self._rows.items()}
        return dup

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpanBasis)
            and self.dim == other.dim
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"SpanBasis(dim={self.dim}, dimension={self.dimension})"


def _sorted_row_iter(m: SparseMatrix):
    # Insert sparse rows first; it keeps the echelon rows short.
    rows = m.row_dicts()
    for r in sorted(rows, key=lambda r: (len(rows[r]), r)):
        yield rows[r]


def row_space(m: SparseMatrix) -> SpanBasis:
    basis = SpanBasis(m.cols)
    for row in _sorted_row_iter(m):
        basis.insert(row)
        if basis.dimension == m.cols:
            break
    return basis


def rank(m: SparseMatrix) -> int:
    return row_space(m).dimension


def nullspace(m: SparseMatrix) -> list[SparseVector]:
    """A basis of {x : m x = 0}, one vector per non-pivot column."""
    basis = row_space(m)
    rows = {p: r for p, r in zip(basis.pivots(), basis.int_rows())}
    out = []
    for j in range(m.cols):
        if j in rows:
            continue
        x = {j: Fraction(1)}
        for p, rp in rows.items():
            c = rp.get(j)
            if c:
                x[p] = Fraction(-c, rp[p])
        out.append(SparseVector(m.cols, x))
    return out
