"""Command-line front end.

Every subcommand prints deterministic JSON (CSV for the dimension table on
request) and exits 0 on success, 1 when a verification assertion fails, 2 on
usage errors, and 3 when a size cap refuses the computation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys

from . import caps, diagrams, ideals, specht, verify
from .algebra import antisymmetrizer, symmetrizer, tableau_quasi_idempotent
from .caps import DEFAULT_MAX_CELLS, SizeCapError
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
    """Write CSV text as given, or stream the JSON text in blocks of encoder
    chunks: the whole text is never held at once, and an unbuffered stdout
    (``PYTHONUNBUFFERED``) still takes few writes."""
    out = getattr(args, "out", None)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if getattr(args, "format", "json") == "csv":
            fh.write(payload)
            return
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(jsonable(payload))
        while block := "".join(itertools.islice(chunks, 1 << 16)):
            fh.write(block)
        fh.write("\n")


def _report_exit(rep: dict, args) -> int:
    _emit(rep, args)
    return EXIT_PASS if rep["pass"] else EXIT_FAIL


def cmd_enumerate(args, parser) -> int:
    n = args.n
    caps.check_order_cap(n, args.max_cells)
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
    caps.check_symmetrizer_cap(args.kind, k, n, args.max_cells)
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
    caps.check_quasi_idempotent_cap(shape, n, args.max_cells)
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
    caps.check_specht_cap(n, args.max_cells)
    shapes = specht.all_shapes(n)
    dims = [(shape, specht.specht_dimension(shape, n)) for shape in shapes]
    total = sum(d * d for _, d in dims)
    if args.format == "csv":
        import csv  # only this branch needs it; importing it costs every start

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
    caps.check_block_cap(args.n, args.max_cells)
    return _report_exit(ideals.check_block_decomposition(args.n), args)


def cmd_verify_orthogonality(args, parser) -> int:
    caps.check_orthogonality_cap(args.n)
    return _report_exit(ideals.check_specht_orthogonality(args.n), args)


def cmd_verify_schur_weyl(args, parser) -> int:
    m, n = args.m, args.n
    if m < 0:
        parser.error(f"need 0 <= m < n, got m={m}, n={n}")
    if m >= n:
        caps.check_tensor_cap(m, n, args.max_cells)
        rep = ideals.check_faithful_action(m, n)
    else:
        caps.check_level_cap(m, n, args.max_cells)
        rep = ideals.check_annihilator_ideal(m, n)
    return _report_exit(rep, args)


def cmd_verify_absorption(args, parser) -> int:
    caps.check_absorption_cap(args.m, args.n)
    return _report_exit(ideals.check_absorption(args.m, args.n), args)


def _verify_all_tasks(n_max: int, m_max: int, max_cells: int):
    """The task grid, with every size-capped resource checked up front."""
    if n_max < 2 or m_max < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n_max}, m={m_max}")
    sizes = [{"n": n} for n in range(1, n_max + 1)]
    small = sizes[1:4]  # n = 2..4
    tensor_pairs = [p | {"m": m} for p in small for m in range(1, min(m_max, 2) + 1)]
    faithful = [{"m": k, "n": k} for k in range(1, min(n_max, m_max) + 1)]
    if m_max >= 3:
        faithful.append({"m": 3, "n": 2})

    def narrow(n_top: int) -> list[dict]:
        return [
            {"m": m, "n": n}
            for n in range(2, n_top + 1)
            for m in range(1, min(n - 1, m_max) + 1)
        ]

    # (family, check, parameter dicts, guard run up front)
    table = [
        ("counting", verify.check_counting, sizes, caps.check_order_cap),
        ("presentation", diagrams.verify_presentation, sizes[1:], None),
        ("factorization", verify.check_factorization, sizes, caps.check_order_cap),
        ("one-dimensional-ideals", ideals.check_one_dimensional_ideals, small, None),
        ("tensor-homomorphism", verify.check_tensor_homomorphism, tensor_pairs,
         caps.check_tensor_map_cap),
        ("faithful", ideals.check_faithful_action, faithful, caps.check_tensor_cap),
        ("annihilator", ideals.check_annihilator_ideal, narrow(n_max), caps.check_level_cap),
        ("blocks", ideals.check_block_decomposition, small, caps.check_block_cap),
        ("specht-orthogonality", ideals.check_specht_orthogonality, sizes[1:3],
         caps.check_orthogonality_cap),
        ("absorption", ideals.check_absorption, narrow(min(n_max, 4)), caps.check_absorption_cap),
        ("specht-dimensions", verify.check_specht_dimension_sum, small, None),
    ]
    tasks = []
    for family, check, params, guard in table:
        for p in params:
            if guard:
                guard(**p, max_cells=max_cells)
            label = ",".join(f"{key}={value}" for key, value in p.items())
            tasks.append((f"{family}({label})", check, p))
    return tasks


def cmd_verify_all(args, parser) -> int:
    try:
        tasks = _verify_all_tasks(args.n, args.m, args.max_cells)
    except ValueError as exc:
        parser.error(str(exc))
    assertions = []
    for name, check, kwargs in tasks:
        sub = check(**kwargs)
        failed = [
            {"name": a["name"], "witness": a["witness"]} for a in sub["assertions"] if not a["pass"]
        ]
        assertions.append(assertion(name, sub["pass"], failed or None))
    params = {"n": args.n, "m": args.m, "max_cells": args.max_cells}
    return _report_exit(report("verify-all", params, assertions), args)


_INT = {"type": int, "required": True}
_DIAGRAM = {"action": "append", "required": True}

# name: (handler, whether --max-cells applies, help, arguments as (flag, keywords))
COMMANDS = {
    "enumerate": (cmd_enumerate, True, "list all diagrams of a given size", [
        ("--n", _INT),
        ("--rank-class", {"type": int, "help": "restrict to diagrams with this many deleted vertices"}),
    ]),
    "mul": (cmd_mul, False, "compose two diagrams", [
        ("--diagram", _DIAGRAM | {"help": "comma-separated image list; give twice"}),
    ]),
    "factorize": (cmd_factorize, False, "canonical quadruple of a diagram", [("--diagram", _DIAGRAM)]),
    "sign": (cmd_sign, False, "length and sign of a diagram", [("--diagram", _DIAGRAM)]),
    "symmetrizer": (cmd_symmetrizer, True, "(anti)symmetrizer over an initial segment", [
        ("--n", _INT),
        ("--r", {"type": int, "help": "size of the initial segment; defaults to n"}),
        ("--kind", {"choices": ["sym", "anti"], "default": "sym"}),
    ]),
    "e-element": (cmd_e_element, True, "quasi-idempotent of a canonical tableau", [
        ("--n", _INT),
        ("--lambda", {"dest": "shape", "required": True, "help": "decreasing comma list; 'empty' allowed"}),
        ("--kind", {"choices": ["row", "col"], "default": "row"}),
    ]),
    "specht-dims": (cmd_specht_dims, True, "Specht module dimensions for all shapes", [
        ("--n", _INT),
        ("--format", {"choices": ["json", "csv"], "default": "json"}),
    ]),
    "verify-presentation": (cmd_verify_presentation, False, "check the defining relations", [("--n", _INT)]),
    "verify-blocks": (cmd_verify_blocks, True, "block ideal decomposition", [("--n", _INT)]),
    "verify-lemma-3-10": (cmd_verify_orthogonality, False, "quasi-idempotents kill other shapes",
                          [("--n", _INT)]),
    "verify-schur-weyl": (cmd_verify_schur_weyl, True, "annihilator of the tensor action",
                          [("--n", _INT), ("--m", _INT)]),
    "verify-lemma-4-4": (cmd_verify_absorption, False, "antisymmetrizer absorption on tall shapes",
                         [("--n", _INT), ("--m", _INT)]),
    "verify-all": (cmd_verify_all, True, "run the whole verification grid", [
        ("--n", {"type": int, "default": 3, "help": "largest diagram size"}),
        ("--m", {"type": int, "default": 2, "help": "largest number of unmarked basis vectors"}),
    ]),
}


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser with a subparser for each command in ``names``, all of
    them by default.

    Each subparser costs a start some formatter set-up, so ``main`` builds
    only the one it runs.  argparse spells the usage line's choice list from
    the subparsers it holds, so a partial parser names all the commands
    itself, in argparse's ``{a,b,...}`` form: usage lines and errors then
    read the same.  The full parser leaves that to argparse, which keeps
    "required: command" in the error for a missing command.
    """
    parser = argparse.ArgumentParser(
        prog="rookmonoid",
        description="Exact computations in the rook monoid algebra",
    )
    spelled = {} if len(names) == len(COMMANDS) else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **spelled)
    for name in names:
        func, capped, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write output to this file instead of stdout")
        if capped:
            p.add_argument(
                "--max-cells",
                type=int,
                default=DEFAULT_MAX_CELLS,
                help="refuse computations larger than this many cells",
            )
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 1:
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
