"""Report-producing checks for the combinatorial layer.

These complement the ideal-theoretic checks: enumeration counts against the
closed formulas, factorization round-trips with the count that makes them
unique, multiplicativity of the tensor action by a generator certificate,
and the squared-dimension count of Specht modules.
"""

from __future__ import annotations

import math
from operator import itemgetter

from . import specht
from .diagrams import (
    all_diagrams,
    compose_quadruple,
    coset_reps,
    diagram_index,
    factorize,
    identity,
    is_permutation,
    monoid_order,
    rank_class,
    rank_class_size,
    reach,
    three_generators,
)
from .groupoid import right_generator_maps
from .reporting import assertion, report
from .tensor import diagram_map, tensor_dim


def check_counting(n: int) -> dict:
    """Enumerated sizes agree with the closed formulas."""
    diags = all_diagrams(n)
    order = monoid_order(n)
    class_sizes = {r: len(rank_class(n, r)) for r in range(n + 1)}
    expected_classes = {r: rank_class_size(n, r) for r in range(n + 1)}
    assertions = [
        assertion(
            "total count matches sum of C(n,r)^2 r!",
            len(diags) == order,
            {"enumerated": len(diags), "formula": order},
        ),
        assertion(
            "deletion classes match C(n,r)^2 (n-r)!",
            class_sizes == expected_classes,
            {str(r): [class_sizes[r], expected_classes[r]] for r in class_sizes},
        ),
        assertion("enumeration is duplicate-free", len(set(diags)) == len(diags)),
        assertion(
            "enumeration is lexicographically sorted",
            list(diags) == sorted(diags),
        ),
    ]
    return report("counting", {"n": n}, assertions)


def check_factorization(n: int) -> dict:
    """Every diagram has exactly one canonical quadruple.

    Call a quadruple valid when d1 and d2 lie in ``coset_reps(n, r)`` and
    sigma is a permutation fixing 1..r; there are
    sum_r |coset_reps(n, r)|^2 (n-r)! of them.  The round trip
    compose(factorize(d)) = d makes ``factorize`` injective, the shape check
    puts its image among the valid quadruples, and the count shows that set
    has as many elements as there are diagrams.  So ``factorize`` is a
    bijection onto the valid quadruples, and a valid quadruple composing to
    d can only be factorize(d).
    """
    diags = all_diagrams(n)
    reps = {r: set(coset_reps(n, r)) for r in range(n + 1)}
    bad_roundtrip = []
    bad_shape = []
    for d in diags:
        q = factorize(d)
        if compose_quadruple(q) != d:
            bad_roundtrip.append(list(d))
        if (
            q.d1 not in reps[q.r]
            or q.d2 not in reps[q.r]
            or not is_permutation(q.sigma)
            or q.sigma[: q.r] != tuple(range(1, q.r + 1))
        ):
            bad_shape.append(list(d))
    quadruples = sum(len(reps[r]) ** 2 * math.factorial(n - r) for r in range(n + 1))
    distinct = len(set(diags))
    assertions = [
        assertion(
            "compose inverts factorize on every diagram",
            not bad_roundtrip,
            bad_roundtrip[:5] if bad_roundtrip else {"diagrams": len(diags)},
        ),
        assertion(
            "factors are coset representatives and sigma a permutation fixing 1..r",
            not bad_shape,
            bad_shape[:5] if bad_shape else None,
        ),
        assertion(
            "valid quadruples are as many as diagrams",
            quadruples == distinct,
            {"quadruples": quadruples, "diagrams": distinct},
        ),
    ]
    return report("factorization", {"n": n}, assertions)


def check_tensor_homomorphism(n: int, m: int) -> dict:
    """phi(d e) = phi(d) phi(e) for every pair of diagrams, by a generator
    certificate.

    For every diagram d and each of s_1, the n-cycle and p_1
    (``three_generators``) it checks phi(d g) = phi(d) phi(g), reading d g
    off the right multiplication maps (``groupoid.right_generator_maps``,
    one table per n for both m); it checks phi(1) = I, and that the
    identity reaches all |R_n| diagrams under those maps (``reach``).  Then
    every e is a word in the generators, so induction on the length of e
    gives phi(d e) = phi(d) phi(e) for all d: phi(d 1) = phi(d) I, and if
    e = e' g with the claim known for e', then
    phi(d e' g) = phi(d e') phi(g) = phi(d) phi(e') phi(g) = phi(d) phi(e).
    That is |R_n| * 3 products instead of |R_n|^2.

    phi(d) is 0/1 with at most one 1 per column, so it is the partial map
    ``diagram_map(d, m)`` on basis indices, dim standing for zero.  Column i
    of phi(d) phi(g) is column phi(g)[i] of phi(d), so the product is the
    composition i -> phi(d)[phi(g)[i]], one ``itemgetter`` per generator.
    """
    diags = all_diagrams(n)
    index = diagram_index(n)
    gens = three_generators(n)
    right = right_generator_maps(n)
    one = identity(n)
    phi = {d: diagram_map(d, m) for d in diags}
    times = [itemgetter(*phi[g]) for g in gens]
    bad = [
        {"left": list(d), "right": list(g), "product": list(diags[tau[i]])}
        for i, d in enumerate(diags)
        for g, tau, times_g in zip(gens, right, times)
        if times_g(phi[d]) != phi[diags[tau[i]]]
    ]
    reached = len(reach(right, index[one]))
    order = monoid_order(n)
    dim = tensor_dim(m, n)
    assertions = [
        assertion(
            "the identity acts as the identity matrix",
            phi[one] == tuple(range(dim + 1)),
        ),
        assertion(
            "generator products reach every diagram",
            reached == order,
            {"reached": reached, "order": order},
        ),
        assertion(
            "diagram matrices multiply like diagrams",
            not bad,
            bad[:5] if bad else {"products": len(diags) * len(gens)},
        ),
    ]
    return report("tensor-homomorphism", {"n": n, "m": m}, assertions)


def check_specht_dimension_sum(n: int) -> dict:
    """Squared Specht dimensions over all shapes add up to the monoid order,
    and each dimension scales from its square-content case by C(n, r)."""
    shapes = specht.all_shapes(n)
    dims = {shape: specht.specht_dimension(shape, n) for shape in shapes}
    total = sum(d * d for d in dims.values())
    order = monoid_order(n)
    bad_scale = []
    for shape in shapes:
        r = sum(shape)
        base = specht.specht_dimension(shape, r) if r else 1
        if dims[shape] != math.comb(n, r) * base:
            bad_scale.append(",".join(map(str, shape)) or "empty")
    assertions = [
        assertion(
            "sum of squared dimensions is the monoid order",
            total == order,
            {"sum": total, "order": order},
        ),
        assertion(
            "dimensions scale by the binomial in n",
            not bad_scale,
            bad_scale if bad_scale else None,
        ),
    ]
    witness = {
        ",".join(map(str, shape)) or "empty": dims[shape] for shape in shapes
    }
    assertions.append(assertion("dimension table", True, witness))
    return report("specht-dimensions", {"n": n}, assertions)
