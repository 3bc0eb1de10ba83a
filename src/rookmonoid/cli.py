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


def _sizes(low: int, high: int) -> list[dict]:
    return [{"n": n} for n in range(low, high + 1)]


def _narrow(n_top: int, m_max: int) -> list[dict]:
    return [{"m": m, "n": n} for n in range(2, n_top + 1) for m in range(1, min(n - 1, m_max) + 1)]


# family: (check, guard or None, its rows in verify-all --n N --m M).  Both
# are called as their modules bind their names at the call, so a patched or
# traced name is the one run; a row's key order spells both its task label
# in verify-all and its guard's arguments.
FAMILIES = {
    "counting": (verify.check_counting, caps.check_order_cap, lambda N, M: _sizes(1, N)),
    "presentation": (diagrams.verify_presentation, None, lambda N, M: _sizes(2, N)),
    "factorization": (verify.check_factorization, caps.check_order_cap, lambda N, M: _sizes(1, N)),
    "one-dimensional-ideals": (ideals.check_one_dimensional_ideals, None,
                               lambda N, M: _sizes(2, min(N, 4))),
    "tensor-homomorphism": (verify.check_tensor_homomorphism, caps.check_tensor_map_cap,
                            lambda N, M: [{"n": n, "m": m} for n in range(2, min(N, 4) + 1)
                                          for m in range(1, min(M, 2) + 1)]),
    "faithful": (ideals.check_faithful_action, caps.check_tensor_cap,
                 lambda N, M: [{"m": k, "n": k} for k in range(1, min(N, M) + 1)]
                 + [{"m": 3, "n": 2}] * (M >= 3)),
    "annihilator": (ideals.check_annihilator_ideal, caps.check_level_cap, _narrow),
    "blocks": (ideals.check_block_decomposition, caps.check_block_cap,
               lambda N, M: _sizes(2, min(N, 4))),
    "specht-orthogonality": (ideals.check_specht_orthogonality, caps.check_orthogonality_cap,
                             lambda N, M: _sizes(2, min(N, 3))),
    "absorption": (ideals.check_absorption, caps.check_absorption_cap,
                   lambda N, M: _narrow(min(N, 4), M)),
    "specht-dimensions": (verify.check_specht_dimension_sum, None,
                          lambda N, M: _sizes(2, min(N, 4))),
}


def _bound(func):
    """What ``func``'s module binds its name to now."""
    return getattr(sys.modules[func.__module__], func.__name__)


def _guarded_checks(rows: list[tuple[str, dict]], max_cells: int | None):
    """The report of each (family, row) check, every row's guard run before
    the first check, so that a refusal comes before any work."""
    for family, row in rows:
        if guard := FAMILIES[family][1]:
            _bound(guard)(**row, max_cells=max_cells)
    for family, row in rows:
        yield _bound(FAMILIES[family][0])(**row)


def cmd_verify(args, parser) -> int:
    """The command's one row, guarded then checked as in verify-all; the
    family of verify-schur-weyl is ``faithful`` when m >= n and
    ``annihilator`` otherwise."""
    row = {key: vars(args)[key] for key in ("m", "n") if key in vars(args)}
    family = {"verify-presentation": "presentation", "verify-blocks": "blocks",
              "verify-lemma-3-10": "specht-orthogonality",
              "verify-lemma-4-4": "absorption"}.get(args.command)
    if family is None:
        if args.m < 0:
            parser.error(f"need 0 <= m < n, got m={args.m}, n={args.n}")
        family = "faithful" if args.m >= args.n else "annihilator"
    rows = [(family, row)]
    return _report_exit(next(_guarded_checks(rows, getattr(args, "max_cells", None))), args)


def cmd_verify_all(args, parser) -> int:
    if args.n < 2 or args.m < 1:
        parser.error(f"need n >= 2 and m >= 1, got n={args.n}, m={args.m}")
    rows = [(family, row) for family, spec in FAMILIES.items() for row in spec[2](args.n, args.m)]
    assertions = []
    for (family, row), sub in zip(rows, _guarded_checks(rows, args.max_cells)):
        failed = [
            {"name": a["name"], "witness": a["witness"]} for a in sub["assertions"] if not a["pass"]
        ]
        label = ",".join(f"{key}={value}" for key, value in row.items())
        assertions.append(assertion(f"{family}({label})", sub["pass"], failed or None))
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
    "verify-presentation": (cmd_verify, False, "check the defining relations", [("--n", _INT)]),
    "verify-blocks": (cmd_verify, True, "block ideal decomposition", [("--n", _INT)]),
    "verify-lemma-3-10": (cmd_verify, True, "quasi-idempotents kill other shapes", [("--n", _INT)]),
    "verify-schur-weyl": (cmd_verify, True, "annihilator of the tensor action",
                          [("--n", _INT), ("--m", _INT)]),
    "verify-lemma-4-4": (cmd_verify, True, "antisymmetrizer absorption on tall shapes",
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
