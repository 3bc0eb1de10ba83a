"""Command-line front end.

Every subcommand prints deterministic JSON (CSV for the dimension table on
request) and exits 0 on success, 1 when a verification assertion fails, 2 on
usage errors, and 3 when a size cap refuses the computation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import diagrams, ideals, specht, tensor, verify
from .algebra import antisymmetrizer, symmetrizer, tableau_quasi_idempotent
from .caps import DEFAULT_MAX_CELLS, SizeCapError, check_level_cap, check_specht_cap
from .reporting import assertion, jsonable, report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _parse_diagram(text: str, parser: argparse.ArgumentParser) -> diagrams.Diagram:
    try:
        img = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"cannot parse diagram {text!r}; expected comma-separated integers")
    if not img or not diagrams.is_diagram(img):
        parser.error(f"{text!r} is not a partial injection")
    return img


def _parse_shape(text: str, parser: argparse.ArgumentParser) -> specht.Shape:
    if text in ("", "0", "empty"):
        return ()
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"cannot parse shape {text!r}; expected comma-separated integers")
    if not specht.is_shape(shape):
        parser.error(f"{text!r} is not a decreasing tuple of positive integers")
    return shape


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = payload
    else:
        text = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_exit(rep: dict, args) -> int:
    _emit(rep, args)
    return EXIT_PASS if rep["pass"] else EXIT_FAIL


def cmd_enumerate(args, parser) -> int:
    n = args.n
    diagrams.check_order_cap(n, args.max_cells)
    if args.rank_class is not None:
        if not 0 <= args.rank_class <= n:
            parser.error(f"--rank-class must be in 0..{n}")
        diags = diagrams.rank_class(n, args.rank_class)
    else:
        diags = diagrams.all_diagrams(n)
    _emit(
        {
            "n": n,
            "rank_class": args.rank_class,
            "count": len(diags),
            "diagrams": [list(d) for d in diags],
        },
        args,
    )
    return EXIT_PASS


def cmd_mul(args, parser) -> int:
    if len(args.diagram) != 2:
        parser.error("mul needs exactly two --diagram arguments")
    d1, d2 = (_parse_diagram(t, parser) for t in args.diagram)
    if len(d1) != len(d2):
        parser.error("the two diagrams must have the same size")
    _emit({"left": list(d1), "right": list(d2), "product": list(diagrams.multiply(d1, d2))}, args)
    return EXIT_PASS


def _one_diagram(args, parser) -> diagrams.Diagram:
    if len(args.diagram) != 1:
        parser.error(f"{args.command} needs exactly one --diagram argument")
    return _parse_diagram(args.diagram[0], parser)


def cmd_factorize(args, parser) -> int:
    d = _one_diagram(args, parser)
    if args.n is not None and args.n != len(d):
        parser.error(f"--n {args.n} does not match diagram size {len(d)}")
    q = diagrams.factorize(d)
    _emit(
        {
            "diagram": list(d),
            "d1": list(q.d1),
            "d2": list(q.d2),
            "r": q.r,
            "sigma": list(q.sigma),
        },
        args,
    )
    return EXIT_PASS


def cmd_sign(args, parser) -> int:
    d = _one_diagram(args, parser)
    _emit(
        {
            "diagram": list(d),
            "rank": diagrams.rank(d),
            "length": diagrams.diagram_length(d),
            "sign": diagrams.diagram_sign(d),
        },
        args,
    )
    return EXIT_PASS


def cmd_symmetrizer(args, parser) -> int:
    n = args.n
    k = args.r if args.r is not None else n
    if not 1 <= k <= n:
        parser.error(f"--r must be in 1..{n}")
    subset = range(1, k + 1)
    elem = (
        antisymmetrizer(subset, n) if args.kind == "anti" else symmetrizer(subset, n)
    )
    _emit({"kind": args.kind, "subset": list(subset)} | elem.to_json(), args)
    return EXIT_PASS


def cmd_e_element(args, parser) -> int:
    n = args.n
    shape = _parse_shape(args.shape, parser)
    if sum(shape) > n:
        parser.error(f"shape {args.shape} does not fit inside 1..{n}")
    t = (
        specht.column_filled_tableau(shape, n)
        if args.kind == "col"
        else specht.row_filled_tableau(shape, n)
    )
    elem = tableau_quasi_idempotent(t)
    _emit(
        {
            "shape": list(shape),
            "tableau": [list(row) for row in t.rows],
            "kind": args.kind,
        }
        | elem.to_json(),
        args,
    )
    return EXIT_PASS


def cmd_specht_dims(args, parser) -> int:
    n = args.n
    check_specht_cap(n, args.max_cells)
    shapes = specht.all_shapes(n)
    dims = [(shape, specht.specht_dimension(shape, n)) for shape in shapes]
    total = sum(d * d for _, d in dims)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["shape", "boxes", "dimension"])
        for shape, d in dims:
            writer.writerow([",".join(map(str, shape)) or "empty", sum(shape), d])
        writer.writerow(["sum_of_squares", "", total])
        writer.writerow(["monoid_order", "", diagrams.monoid_order(n)])
        _emit(buf.getvalue(), args)
    else:
        _emit(
            {
                "n": n,
                "dimensions": [
                    {"shape": list(shape), "boxes": sum(shape), "dimension": d}
                    for shape, d in dims
                ],
                "sum_of_squares": total,
                "monoid_order": diagrams.monoid_order(n),
            },
            args,
        )
    return EXIT_PASS


def cmd_verify_presentation(args, parser) -> int:
    return _report_exit(diagrams.verify_presentation(args.n), args)


def cmd_verify_blocks(args, parser) -> int:
    return _report_exit(ideals.check_block_decomposition(args.n), args)


def cmd_verify_orthogonality(args, parser) -> int:
    return _report_exit(ideals.check_specht_orthogonality(args.n), args)


def cmd_verify_schur_weyl(args, parser) -> int:
    if args.m >= args.n:
        rep = ideals.check_faithful_action(args.m, args.n, max_cells=args.max_cells)
    else:
        rep = ideals.check_annihilator_ideal(args.m, args.n, max_cells=args.max_cells)
    return _report_exit(rep, args)


def cmd_verify_absorption(args, parser) -> int:
    if not args.m < args.n:
        parser.error("needs m < n")
    return _report_exit(ideals.check_absorption(args.m, args.n), args)


def _verify_all_tasks(n_max: int, m_max: int, max_cells: int):
    """The task grid, with every size-capped resource checked up front."""
    if n_max < 2 or m_max < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n_max}, m={m_max}")
    tasks: list[tuple[str, object]] = []
    for n in range(1, n_max + 1):
        diagrams.check_order_cap(n, max_cells)
        tasks.append((f"counting(n={n})", lambda n=n: verify.check_counting(n)))
    for n in range(2, n_max + 1):
        tasks.append(
            (
                f"presentation(n={n})",
                lambda n=n: diagrams.verify_presentation(n),
            )
        )
    for n in range(1, n_max + 1):
        diagrams.check_order_cap(n, max_cells)
        tasks.append(
            (f"factorization(n={n})", lambda n=n: verify.check_factorization(n))
        )
    for n in range(2, min(n_max, 4) + 1):
        tasks.append(
            (
                f"one-dimensional-ideals(n={n})",
                lambda n=n: ideals.check_one_dimensional_ideals(n),
            )
        )
    for n in range(2, min(n_max, 4) + 1):
        for m in range(1, min(m_max, 2) + 1):
            tensor.check_tensor_cap(m, n, max_cells)
            tasks.append(
                (
                    f"tensor-homomorphism(n={n},m={m})",
                    lambda n=n, m=m: verify.check_tensor_homomorphism(
                        n, m, max_cells=max_cells
                    ),
                )
            )
    faithful_pairs = [(k, k) for k in range(1, min(n_max, m_max) + 1)]
    if m_max >= 3 and n_max >= 2:
        faithful_pairs.append((3, 2))
    for m, n in faithful_pairs:
        tensor.check_tensor_cap(m, n, max_cells)
        tasks.append(
            (
                f"faithful(m={m},n={n})",
                lambda m=m, n=n: ideals.check_faithful_action(m, n, max_cells=max_cells),
            )
        )
    for n in range(2, n_max + 1):
        for m in range(1, min(n - 1, m_max) + 1):
            check_level_cap(m, n, max_cells)
            tasks.append(
                (
                    f"annihilator(m={m},n={n})",
                    lambda m=m, n=n: ideals.check_annihilator_ideal(
                        m, n, max_cells=max_cells
                    ),
                )
            )
    for n in range(2, min(n_max, 4) + 1):
        tasks.append(
            (f"blocks(n={n})", lambda n=n: ideals.check_block_decomposition(n))
        )
    for n in range(2, min(n_max, 3) + 1):
        tasks.append(
            (
                f"specht-orthogonality(n={n})",
                lambda n=n: ideals.check_specht_orthogonality(n),
            )
        )
    for n in range(2, min(n_max, 4) + 1):
        for m in range(1, min(n - 1, m_max) + 1):
            tasks.append(
                (
                    f"absorption(m={m},n={n})",
                    lambda m=m, n=n: ideals.check_absorption(m, n),
                )
            )
    for n in range(2, min(n_max, 4) + 1):
        tasks.append(
            (
                f"specht-dimensions(n={n})",
                lambda n=n: verify.check_specht_dimension_sum(n),
            )
        )
    return tasks


def cmd_verify_all(args, parser) -> int:
    try:
        tasks = _verify_all_tasks(args.n, args.m, args.max_cells)
    except ValueError as exc:
        parser.error(str(exc))
    assertions = []
    for name, thunk in tasks:
        sub = thunk()
        failed = [a["name"] for a in sub["assertions"] if not a["pass"]]
        assertions.append(assertion(name, sub["pass"], failed or None))
    params = {"n": args.n, "m": args.m, "max_cells": args.max_cells}
    return _report_exit(report("verify-all", params, assertions), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookmonoid",
        description="Exact computations in the rook monoid algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument(
            "--max-cells",
            type=int,
            default=DEFAULT_MAX_CELLS,
            help="refuse computations larger than this many cells",
        )
        p.set_defaults(func=func)
        return p

    p = add("enumerate", cmd_enumerate, help="list all diagrams of a given size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank-class", type=int, help="restrict to diagrams with this many deleted vertices")

    p = add("mul", cmd_mul, help="compose two diagrams")
    p.add_argument("--diagram", action="append", required=True, help="comma-separated image list; give twice")

    p = add("factorize", cmd_factorize, help="canonical quadruple of a diagram")
    p.add_argument("--diagram", action="append", required=True)
    p.add_argument("--n", type=int)

    p = add("sign", cmd_sign, help="length and sign of a diagram")
    p.add_argument("--diagram", action="append", required=True)

    p = add("symmetrizer", cmd_symmetrizer, help="(anti)symmetrizer over an initial segment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, help="size of the initial segment; defaults to n")
    p.add_argument("--kind", choices=["sym", "anti"], default="sym")

    p = add("e-element", cmd_e_element, help="quasi-idempotent of a canonical tableau")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="shape", required=True, help="decreasing comma list; 'empty' allowed")
    p.add_argument("--kind", choices=["row", "col"], default="row")

    p = add("specht-dims", cmd_specht_dims, help="Specht module dimensions for all shapes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("verify-presentation", cmd_verify_presentation, help="check the defining relations")
    p.add_argument("--n", type=int, required=True)

    p = add("verify-blocks", cmd_verify_blocks, help="block ideal decomposition")
    p.add_argument("--n", type=int, required=True)

    p = add("verify-lemma-3-10", cmd_verify_orthogonality, help="quasi-idempotents kill other shapes")
    p.add_argument("--n", type=int, required=True)

    p = add("verify-schur-weyl", cmd_verify_schur_weyl, help="annihilator of the tensor action")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("verify-lemma-4-4", cmd_verify_absorption, help="antisymmetrizer absorption on tall shapes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("verify-all", cmd_verify_all, help="run the whole verification grid")
    p.add_argument("--n", type=int, default=3, help="largest diagram size")
    p.add_argument("--m", type=int, default=2, help="largest number of unmarked basis vectors")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.command != "factorize" and args.n < 1:
        parser.error("--n must be at least 1")
    try:
        return args.func(args, parser)
    except SizeCapError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CAP
    except ValueError as exc:
        parser.error(str(exc))
        return EXIT_USAGE  # unreachable; parser.error raises SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
