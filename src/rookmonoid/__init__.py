"""Exact-arithmetic computations in the rook monoid algebra.

Diagrams, the monoid algebra over the rationals, Specht modules with partial
content, the action on tensor powers of a pointed vector space, and machine
checks of the structural results built from those pieces: block
decomposition, faithfulness, and the annihilator ideal of tensor space.
"""

from .algebra import (
    AlgebraElement,
    antisymmetrizer,
    full_projector,
    symmetrizer,
    tableau_quasi_idempotent,
    top_antisymmetrizer,
)
from .caps import DEFAULT_MAX_CELLS, SizeCapError
from .diagrams import (
    Quadruple,
    all_diagrams,
    diagram_sign,
    factorize,
    generator,
    identity,
    monoid_order,
    multiply,
    star,
    verify_presentation,
)
from .ideals import (
    IdealSpan,
    annihilator_dimension_formula,
    block_ideal,
    check_absorption,
    check_annihilator_ideal,
    check_block_decomposition,
    check_faithful_action,
    check_one_dimensional_ideals,
    check_specht_orthogonality,
    two_sided_ideal,
)
from .linalg import SpanBasis, SparseMatrix, nullspace
from .specht import Tableau, polytabloid, specht_dimension
from .tensor import annihilator_basis, diagram_map, element_matrix, phi_matrix

__version__ = "0.1.0"
