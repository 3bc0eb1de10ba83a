"""Tableaux with partial content and the Specht modules they span.

A shape is a decreasing tuple of positive integers whose total r may be
smaller than n: a tableau of that shape holds r distinct entries drawn from
{1..n}, so only part of {1..n} appears.  A tabloid is a tableau up to
reordering within rows, stored with sorted rows.  Diagrams act by renaming
entries along their edges; an entry sitting on an isolated bottom vertex of
the diagram kills the tableau, and the distinguished result for that case is
``None``.  On tabloid indices a diagram acts as an index map
(``tabloid_map``), whose sentinel for a killed tabloid is the number of
tabloids, and vectors of the permutation module are keyed by tabloid index.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

from . import diagrams
from .linalg import SpanBasis, saturate

if TYPE_CHECKING:
    from .algebra import Coeff

Shape = tuple[int, ...]
Tabloid = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def partitions_of(r: int) -> tuple[Shape, ...]:
    """Partitions of r, largest first in lexicographic order.

    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(sorted(gen(r, r), reverse=True))


def all_shapes(n: int) -> tuple[Shape, ...]:
    """Every partition of every r from 0 through n."""
    return tuple(
        shape for r in range(n + 1) for shape in partitions_of(r)
    )


def is_shape(shape: Sequence[int]) -> bool:
    return all(a >= 1 for a in shape) and all(
        shape[i] >= shape[i + 1] for i in range(len(shape) - 1)
    )


def conjugate(shape: Shape) -> Shape:
    if not shape:
        return ()
    return tuple(
        sum(1 for row in shape if row > j) for j in range(shape[0])
    )


class Tableau:
    """A filling of ``shape`` by distinct entries from 1..n, row by row.
    Immutable, and equal to another tableau with the same shape, n and
    rows."""

    __slots__ = ("shape", "n", "rows")

    def __init__(self, shape: Shape, n: int, rows: tuple[tuple[int, ...], ...]):
        if not is_shape(shape):
            raise ValueError(f"not a shape: {shape}")
        if sum(shape) > n:
            raise ValueError(f"shape {shape} does not fit inside 1..{n}")
        if tuple(len(row) for row in rows) != shape:
            raise ValueError(f"rows {rows} do not match shape {shape}")
        flat = [e for row in rows for e in row]
        if len(set(flat)) != len(flat) or not all(1 <= e <= n for e in flat):
            raise ValueError(f"entries must be distinct and within 1..{n}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Tableau is immutable; cannot set or delete {name}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return (self.shape, self.n, self.rows) == (other.shape, other.n, other.rows)

    def __hash__(self) -> int:
        return hash((self.shape, self.n, self.rows))

    def __repr__(self) -> str:
        return f"Tableau(shape={self.shape!r}, n={self.n!r}, rows={self.rows!r})"

    @property
    def content(self) -> frozenset[int]:
        return frozenset(e for row in self.rows for e in row)


def row_filled_tableau(shape: Shape, n: int) -> Tableau:
    """The tableau filled 1, 2, ... along consecutive rows."""
    counter = itertools.count(1)
    rows = tuple(tuple(next(counter) for _ in range(k)) for k in shape)
    return Tableau(tuple(shape), n, rows)


def column_filled_tableau(shape: Shape, n: int) -> Tableau:
    """The tableau filled 1, 2, ... down consecutive columns."""
    shape = tuple(shape)
    cols = conjugate(shape)
    grid: dict[tuple[int, int], int] = {}
    counter = itertools.count(1)
    for j, height in enumerate(cols):
        for i in range(height):
            grid[(i, j)] = next(counter)
    rows = tuple(
        tuple(grid[(i, j)] for j in range(k)) for i, k in enumerate(shape)
    )
    return Tableau(shape, n, rows)


def column_sets(t: Tableau) -> tuple[tuple[int, ...], ...]:
    cols = conjugate(t.shape)
    return tuple(
        tuple(t.rows[i][j] for i in range(height))
        for j, height in enumerate(cols)
    )


def all_tableaux(shape: Shape, n: int) -> Iterator[Tableau]:
    """All fillings of the shape by distinct entries from 1..n, in a fixed
    order: content sets ascending, then entry arrangements lexicographic."""
    shape = tuple(shape)
    r = sum(shape)
    bounds = list(itertools.accumulate(shape))
    for content in itertools.combinations(range(1, n + 1), r):
        for arrangement in itertools.permutations(content):
            rows = tuple(
                arrangement[start - k:start]
                for k, start in zip(shape, bounds)
            )
            yield Tableau(shape, n, rows)


@lru_cache(maxsize=None)
def all_tabloids(shape: Shape, n: int) -> tuple[Tabloid, ...]:
    """Every tabloid of the shape, sorted by concatenated row content."""
    shape = tuple(shape)
    r = sum(shape)
    out = []
    for content in itertools.combinations(range(1, n + 1), r):
        for split in _row_splits(content, shape):
            out.append(split)
    return tuple(sorted(out, key=lambda tb: tuple(e for row in tb for e in row)))


def _row_splits(content: tuple[int, ...], shape: Shape) -> Iterator[Tabloid]:
    if not shape:
        yield ()
        return
    rest_shape = shape[1:]
    for first in itertools.combinations(content, shape[0]):
        remaining = tuple(e for e in content if e not in first)
        for tail in _row_splits(remaining, rest_shape):
            yield (first,) + tail


@lru_cache(maxsize=None)
def tabloid_index(shape: Shape, n: int) -> dict[Tabloid, int]:
    return {tb: i for i, tb in enumerate(all_tabloids(shape, n))}


def partner_map(d: Sequence[int]) -> tuple[int, ...]:
    """``diagrams.padded(diagrams.star(d))``: slot e holds the top partner
    of bottom vertex e, or 0 when e is isolated.  Build it once per diagram
    and pass it to ``act_on_tabloid``."""
    return diagrams.padded(diagrams.star(d))


def act_on_tabloid(partner: tuple[int, ...], tb: Tabloid) -> Tabloid | None:
    """The tabloid with each entry e renamed to ``partner[e]``, for the
    ``partner_map`` of a diagram; ``None`` when an entry has no partner."""
    rows = []
    for row in tb:
        new_row = []
        for e in row:
            a = partner[e]
            if a == 0:
                return None
            new_row.append(a)
        rows.append(tuple(sorted(new_row)))
    return tuple(rows)


def tabloid_map(d: Sequence[int], shape: Shape, n: int) -> tuple[int, ...]:
    """The diagram d as a map on the indices of ``all_tabloids(shape, n)``:
    entry i is the index of d applied to tabloid i, or ``len(tabloids)``
    when d kills it."""
    partner = partner_map(d)
    index = tabloid_index(shape, n)
    dead = len(index)
    images = (act_on_tabloid(partner, tb) for tb in all_tabloids(shape, n))
    return tuple(dead if image is None else index[image] for image in images)


def act_on_tabloid_vector(
    terms: Sequence[tuple[tuple[int, ...], Coeff]], vec: dict[int, Coeff]
) -> dict[int, Coeff]:
    """Extend the tabloid action linearly to the algebra element whose terms
    are the (``tabloid_map``, coefficient) pairs in ``terms``, acting on a
    vector keyed by tabloid index."""
    out: dict[int, Coeff] = {}
    for tau, coeff in terms:
        dead = len(tau)
        for i, c in vec.items():
            j = tau[i]
            if j != dead:
                out[j] = out.get(j, 0) + coeff * c
    return {j: c for j, c in out.items() if c}


def polytabloid(t: Tableau) -> dict[Tabloid, int]:
    """Signed sum of the tabloids reachable by permuting within columns."""
    cols = column_sets(t)
    out: dict[Tabloid, int] = {}
    for arrangements in itertools.product(
        *(itertools.permutations(range(len(col))) for col in cols)
    ):
        rename = {}
        sign = 1
        for col, positions in zip(cols, arrangements):
            sign *= diagrams.perm_sign(positions)
            rename.update(zip(col, (col[i] for i in positions)))
        rows = tuple(
            tuple(sorted(rename.get(e, e) for e in row)) for row in t.rows
        )
        acc = out.get(rows, 0) + sign
        if acc:
            out[rows] = acc
        else:
            out.pop(rows, None)
    return out


def vector_coordinates(
    vec: dict[Tabloid, "Coeff"], shape: Shape, n: int
) -> dict[int, "Coeff"]:
    index = tabloid_index(tuple(shape), n)
    return {index[tb]: c for tb, c in vec.items()}


def _swap_maps(shape: Shape, n: int) -> tuple[tuple[int, ...], ...]:
    """Index maps of the adjacent swaps s_1 .. s_n-1 on ``all_tabloids``."""
    return tuple(tabloid_map(diagrams.generator(n, "s", i), shape, n) for i in range(1, n))


@lru_cache(maxsize=None)
def specht_basis(shape: Shape, n: int) -> SpanBasis:
    """Echelon span of every polytabloid of the shape inside the tabloid
    coordinate space.  Cached; treat as read-only.

    A permutation sigma maps e_t to e_(sigma t), and S_n is transitive on
    the fillings of the shape by distinct entries from 1..n, so every
    polytabloid is sigma e_t for the row-filled t and some sigma.  The span
    of all polytabloids is therefore the span of that one e_t closed under
    the adjacent swaps, which generate S_n; that closure is built here.
    """
    seed = vector_coordinates(polytabloid(row_filled_tableau(shape, n)), shape, n)
    return saturate(len(all_tabloids(shape, n)), _swap_maps(shape, n), [seed])


@lru_cache(maxsize=None)
def specht_dimension(shape: Shape, n: int) -> int:
    """The rank of the cached ``specht_basis``."""
    return specht_basis(tuple(shape), n).dimension
