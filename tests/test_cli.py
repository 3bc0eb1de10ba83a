import argparse
import json
import os
import subprocess
import sys
import time
from collections import deque
from math import factorial

import pytest

import rookmonoid
from rookmonoid.caps import (
    DEFAULT_MAX_CELLS,
    SizeCapError,
    block_entries,
    check_absorption_cap,
    check_block_cap,
    check_level_cap,
    check_orthogonality_cap,
    check_quasi_idempotent_cap,
    check_specht_cap,
    check_symmetrizer_cap,
    level_work,
    quasi_idempotent_pairs,
)
from rookmonoid.algebra import AlgebraElement, tableau_quasi_idempotent
from rookmonoid import caps, cli, groupoid, ideals, linalg, specht, verify
from rookmonoid.cli import COMMANDS, main
from rookmonoid.diagrams import monoid_order, three_generators
from rookmonoid.ideals import block_ideal, check_annihilator_ideal
from rookmonoid.linalg import SpanBasis
from rookmonoid.reporting import assertion, report
from rookmonoid.specht import all_shapes, column_filled_tableau, row_filled_tableau, specht_basis


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_enumerate_counts(capsys):
    code, data = run_json(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert data["count"] == monoid_order(2) == 7
    assert [1, 2] in data["diagrams"]
    assert [0, 0] in data["diagrams"]


def test_enumerate_rank_class(capsys):
    code, data = run_json(capsys, "enumerate", "--n", "3", "--rank-class", "1")
    assert code == 0
    assert data["count"] == 18


def test_mul(capsys):
    code, data = run_json(capsys, "mul", "--diagram", "2,1", "--diagram", "0,2")
    assert code == 0
    assert data["product"] == [2, 0]


def test_mul_needs_two_diagrams(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--diagram", "2,1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["factorize", "sign"])
def test_one_diagram_commands_refuse_two(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--diagram", "1,2", "--diagram", "2,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "exactly one --diagram" in captured.err
    assert captured.out == ""


def test_factorize_roundtrip(capsys):
    code, data = run_json(capsys, "factorize", "--diagram", "2,0")
    assert code == 0
    assert data["diagram"] == [2, 0]
    assert data["d1"] == [2, 1]
    assert data["d2"] == [1, 2]
    assert data["r"] == 1
    assert data["sigma"] == [1, 2]


def test_sign(capsys):
    code, data = run_json(capsys, "sign", "--diagram", "0,0")
    assert code == 0
    assert data["sign"] == 1
    code, data = run_json(capsys, "sign", "--diagram", "0,2")
    assert data["sign"] == -1


def test_symmetrizer_output(capsys):
    code, data = run_json(capsys, "symmetrizer", "--n", "2", "--kind", "anti")
    assert code == 0
    coeffs = {tuple(t["diagram"]): t["coeff"] for t in data["terms"]}
    assert coeffs[(1, 2)] == "1"
    assert coeffs[(2, 1)] == "-1"
    assert len(coeffs) == 6


def test_e_element_empty_shape(capsys):
    code, data = run_json(capsys, "e-element", "--n", "2", "--lambda", "empty")
    assert code == 0
    coeffs = {tuple(t["diagram"]): t["coeff"] for t in data["terms"]}
    assert coeffs == {(0, 0): "1"}


def test_specht_dims_json_and_csv(capsys):
    code, data = run_json(capsys, "specht-dims", "--n", "3")
    assert code == 0
    table = {tuple(row["shape"]): row["dimension"] for row in data["dimensions"]}
    assert table[(2, 1)] == 2
    assert table[(1,)] == 3
    assert data["sum_of_squares"] == data["monoid_order"] == monoid_order(3) == 34

    code, out = run_cli(capsys, "specht-dims", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shape,boxes,dimension"
    # one row per shape plus the two summary rows
    assert len(lines) == 1 + len(table) + 2
    assert lines[-1] == "monoid_order,,34"


def test_verify_presentation_exit_zero(capsys):
    code, data = run_json(capsys, "verify-presentation", "--n", "3")
    assert code == 0
    assert data["pass"] is True


def test_verify_schur_weyl_narrow(capsys):
    code, data = run_json(capsys, "verify-schur-weyl", "--n", "2", "--m", "1")
    assert code == 0
    assert data["pass"] is True
    assert data["check"] == "verify-schur-weyl"
    assert data["params"]["mode"] == "annihilator"


def test_verify_schur_weyl_wide(capsys):
    code, data = run_json(capsys, "verify-schur-weyl", "--n", "2", "--m", "2")
    assert code == 0
    assert data["params"]["mode"] == "faithful"


def test_verify_blocks(capsys):
    code, data = run_json(capsys, "verify-blocks", "--n", "2")
    assert code == 0
    assert data["pass"] is True


def test_verify_lemma_commands(capsys):
    code, data = run_json(capsys, "verify-lemma-3-10", "--n", "2")
    assert code == 0 and data["pass"] is True
    code, data = run_json(capsys, "verify-lemma-4-4", "--n", "2", "--m", "1")
    assert code == 0 and data["pass"] is True


def test_verify_lemma_4_4_refuses_m_not_below_n(capsys):
    # check_absorption raises the ValueError, and main turns it into exit 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemma-4-4", "--n", "3", "--m", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "need 0 <= m < n" in captured.err
    assert captured.out == ""


def test_verify_all_small(capsys):
    code, data = run_json(capsys, "verify-all", "--n", "2", "--m", "1")
    assert code == 0
    assert data["pass"] is True
    assert data["check"] == "verify-all"
    assert data["assertions"]
    assert all(a["pass"] for a in data["assertions"])
    names = [a["name"] for a in data["assertions"]]
    assert len(names) == len(set(names))
    assert any(name.startswith("schur-weyl") or "annihilator" in name for name in names)


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)``, usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    *(([command, "--help"], 0) for command in COMMANDS),
    (["verify-all", "--bogus"], 2),  # an unknown option after a command
    (["verify-all", "--n", "x"], 2),  # a bad value
    (["verify-blocks"], 2),  # a missing required option
    (["mul", "--diagram", "1,2"], 2),  # a usage error raised after parsing
    (["bogus"], 2),  # an unknown command
    ([], 2),  # no command
    (["--help"], 0),
])
def test_one_subparser_reads_as_the_full_parser(argv, code, monkeypatch, capsys):
    # a start builds only the subparser it runs; usage lines, help and errors
    # must read exactly as with every subparser built
    partial = _outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: full())
    assert _outcome(argv, capsys) == partial
    assert partial[0] == code and (partial[1] if code == 0 else partial[2]).startswith("usage: rookmonoid")


def test_a_command_builds_only_its_own_subparser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["verify-all", "--n", "2", "--m", "1"]) == 0
    assert built == ["verify-all"]
    built.clear()
    assert _outcome(["--help"], capsys)[0] == 0
    assert built == list(COMMANDS)


def test_cap_exit_code(capsys):
    code = main(["verify-schur-weyl", "--n", "99", "--m", "1"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("m, n", [(2, 8), (1, 8)])
def test_cap_counts_phi_entries(m, n, capsys):
    # the level guard refuses n = 8, about 430M entries, before any work
    started = time.monotonic()
    code = main(["verify-schur-weyl", "--m", str(m), "--n", str(n)])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 3
    assert "refusing" in captured.err
    assert "groupoid level work" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_level_guard_admits_n6(m):
    # every m < 6 passes the default cap at n = 6; not run, only guarded
    assert level_work(6) == 9 * 13_327 + 2 * 20_175 == 160_293 <= DEFAULT_MAX_CELLS
    check_level_cap(m, 6, DEFAULT_MAX_CELLS)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_level_guard_admits_n7(m):
    # 1.67M entries pass the default cap at n = 7, and 19.4M at n = 8 do not;
    # not run, only guarded
    assert level_work(7) == 10 * 130_922 + 2 * 179_562 == 1_668_344 <= DEFAULT_MAX_CELLS
    check_level_cap(m, 7, DEFAULT_MAX_CELLS)
    assert level_work(8) == 11 * 1_441_729 + 2 * 1_749_482 == 19_357_983 > DEFAULT_MAX_CELLS


def test_level_bound_covers_stored_entries(monkeypatch):
    # the certificate's index maps (n deletions and the generators), the
    # echelon rows of every span the check builds (the Specht modules at n
    # and at each k <= n, and each level's seeds), and the largest set of
    # Specht swap maps with its saturation queue at its fullest, all counted
    # as if held at once; the caches start empty, so every module is built
    spans, queues, maps = [], [], []

    class Span(SpanBasis):
        def __init__(self, dim):
            super().__init__(dim)
            spans.append(self)

    class Queue(deque):
        def __init__(self, vecs=()):
            super().__init__(vecs)
            self.peak = sum(map(len, self))
            queues.append(self)

        def append(self, vec):
            super().append(vec)
            self.peak = max(self.peak, sum(map(len, self)))

    swap_maps = specht._swap_maps

    def counted_maps(shape, n):
        out = swap_maps(shape, n)
        maps.append(sum(map(len, out)))
        return out

    for module in (ideals, linalg, specht):
        monkeypatch.setattr(module, "SpanBasis", Span)
    monkeypatch.setattr(linalg, "deque", Queue)
    monkeypatch.setattr(specht, "_swap_maps", counted_maps)
    for n in range(1, 6):
        fixed = (n + len(three_generators(n))) * monoid_order(n)
        for m in range(n):
            for cache in (groupoid.characters, specht.specht_basis, specht.specht_dimension):
                cache.cache_clear()
            spans.clear(), queues.clear(), maps.clear()
            assert check_annihilator_ideal(m, n)["pass"]
            assert len(maps) == len(queues) > 0
            held = sum(sum(map(len, span.int_rows())) for span in spans)
            held += max(a + q.peak for a, q in zip(maps, queues))
            assert fixed + held <= level_work(n), (m, n)
    for cache in (groupoid.characters, specht.specht_basis, specht.specht_dimension):
        cache.cache_clear()


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "99"],
    ["symmetrizer", "--n", "99"],
    ["e-element", "--n", "99", "--lambda", "99"],
    ["specht-dims", "--n", "99"],
    ["verify-blocks", "--n", "99"],
    ["verify-lemma-3-10", "--n", "99"],
    ["verify-schur-weyl", "--n", "99", "--m", "1"],
    ["verify-lemma-4-4", "--n", "99", "--m", "1"],
    ["verify-lemma-4-4", "--n", "99", "--m", "97"],
    ["verify-all", "--n", "99", "--m", "1"],
])
def test_every_guarded_command_refuses_n99_at_once(argv, capsys):
    started = time.monotonic()
    code = main(argv)
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 3
    assert "refusing" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, quantity", [
    (["verify-lemma-3-10", "--n", "8"], "tableaux plus tabloid map entries at n=8 = 11017431"),
    (["verify-lemma-4-4", "--n", "7", "--m", "1"], "absorption term pairs at m=1, n=7 = 10116310"),
], ids=["verify-lemma-3-10", "verify-lemma-4-4"])
def test_lemma_guards_refuse_what_they_count(argv, quantity, capsys):
    # n = 7, every (m, 6) and (6, 7) pass; the absorption count at (1, 7)
    # stops at the shape that takes it past the cap, short of its whole
    # 20,258,530
    assert main(argv) == 3
    assert quantity in capsys.readouterr().err
    check_orthogonality_cap(7, DEFAULT_MAX_CELLS)
    for m in range(6):
        check_absorption_cap(m, 6, DEFAULT_MAX_CELLS)
    check_absorption_cap(6, 7, DEFAULT_MAX_CELLS)
    assert main(["verify-lemma-4-4", "--n", "3", "--m", "1"]) == 0
    # the guard visits every shape with more than m rows: one pair short of
    # the whole count, it refuses on the last shape with the whole count
    for n in range(1, 7):
        for m in range(n):
            tall = [s for s in all_shapes(n) if len(s) > m]
            y_terms = factorial(m + 2)
            total = sum(
                quasi_idempotent_pairs(s, n) + quasi_idempotent_pairs(s, n, y_terms) for s in tall
            )
            check_absorption_cap(m, n, total)
            with pytest.raises(SizeCapError) as exc:
                check_absorption_cap(m, n, total - 1)
            assert exc.value.value == total, (m, n)


def test_specht_dims_refuses_n9(capsys):
    started = time.monotonic()
    code = main(["specht-dims", "--n", "9"])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 3
    assert "refusing" in captured.err
    assert "Specht swap-map entries at n=9 = 18530536" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize("n, quantity", [
    (7, "block ideal echelon entries at n=7 = 47678534"),
    (99, "rook monoid order at n=99"),
])
def test_verify_blocks_refuses_large_n(n, quantity, capsys):
    # n = 99 is refused on the monoid order, before any shape is listed
    started = time.monotonic()
    code = main(["verify-blocks", "--n", str(n)])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 3
    assert quantity in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


D = DEFAULT_MAX_CELLS
GRID = ["verify-all", "--n", "4", "--m", "3"]
ORDER_ROWS = [(n, D) for n in range(1, 5)]
NARROW_ROWS = [(m, n, D) for n in range(2, 5) for m in range(1, n)]


@pytest.mark.parametrize("argv, guard, check, guarded", [
    (["verify-blocks", "--n", "3"], "check_block_cap", "ideals.check_block_decomposition",
     [(3, D)]),
    (["verify-lemma-3-10", "--n", "3"], "check_orthogonality_cap",
     "ideals.check_specht_orthogonality", [(3, D)]),
    (["verify-lemma-4-4", "--n", "3", "--m", "1"], "check_absorption_cap",
     "ideals.check_absorption", [(1, 3, D)]),
    (["verify-schur-weyl", "--n", "3", "--m", "1"], "check_level_cap",
     "ideals.check_annihilator_ideal", [(1, 3, D)]),
    (["verify-schur-weyl", "--n", "2", "--m", "2"], "check_tensor_cap",
     "ideals.check_faithful_action", [(2, 2, D)]),
    (GRID, "check_order_cap", "verify.check_counting", ORDER_ROWS),
    (GRID, "check_order_cap", "verify.check_factorization", ORDER_ROWS * 2),
    (GRID, "check_tensor_map_cap", "verify.check_tensor_homomorphism",
     [(n, m, D) for n in range(2, 5) for m in (1, 2)]),
    (GRID, "check_tensor_cap", "ideals.check_faithful_action",
     [(1, 1, D), (2, 2, D), (3, 3, D), (3, 2, D)]),
    (GRID, "check_level_cap", "ideals.check_annihilator_ideal", NARROW_ROWS),
    (GRID, "check_block_cap", "ideals.check_block_decomposition", [(2, D), (3, D), (4, D)]),
    (GRID, "check_orthogonality_cap", "ideals.check_specht_orthogonality", [(2, D), (3, D)]),
    (GRID, "check_absorption_cap", "ideals.check_absorption", NARROW_ROWS),
], ids=[
    "verify-blocks", "verify-lemma-3-10", "verify-lemma-4-4", "verify-schur-weyl-narrow",
    "verify-schur-weyl-wide", "verify-all-counting", "verify-all-factorization",
    "verify-all-tensor-homomorphism", "verify-all-faithful", "verify-all-annihilator",
    "verify-all-blocks", "verify-all-specht-orthogonality", "verify-all-absorption",
])
def test_guard_runs_before_its_check(argv, guard, check, guarded, monkeypatch, capsys):
    # the guard refuses on its last call, once it has seen every row it
    # guards (in the grid, every row of its families up to the check's), and
    # the check must not have run by then
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))
        if len(calls) == len(guarded):
            raise SizeCapError(guard, 1, 0)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{check} ran before its guard refused")

    monkeypatch.setattr(caps, guard, refuse)
    monkeypatch.setattr(f"rookmonoid.{check}", forbidden)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert calls == guarded
    assert f"refusing: {guard} = 1" in captured.err
    assert captured.out == ""


MAX_CELLS_ROWS = [  # (argv, a cap one below the guard's count, the refusal's quantity)
    (["enumerate", "--n", "3"], 33, "rook monoid order at n=3 = 34"),
    (["symmetrizer", "--n", "3"], 135, "sym output cells terms*(n+1) at r=3, n=3 = 136"),
    (["e-element", "--n", "3", "--lambda", "2,1"], 61,
     "quasi-idempotent term pairs at shape (2,1), n=3 = 62"),
    (["specht-dims", "--n", "3"], 45, "Specht swap-map entries at n=3 = 46"),
    (["verify-blocks", "--n", "3"], 69, "block ideal echelon entries at n=3 = 70"),
    (["verify-lemma-3-10", "--n", "3"], 194, "tableaux plus tabloid map entries at n=3 = 195"),
    (["verify-schur-weyl", "--n", "3", "--m", "1"], 295, "groupoid level work at m=1, n=3 = 296"),
    (["verify-lemma-4-4", "--n", "3", "--m", "1"], 765, "absorption term pairs at m=1, n=3 = 766"),
    (["verify-all", "--n", "2", "--m", "1"], 6, "rook monoid order at n=2 = 7"),
]


def test_max_cells_rows_cover_every_guarded_command():
    assert [argv[0] for argv, _, _ in MAX_CELLS_ROWS] == [
        name for name, (_, capped, _, _) in COMMANDS.items() if capped
    ]


@pytest.mark.parametrize("argv, cap, quantity", MAX_CELLS_ROWS,
                         ids=[argv[0] for argv, _, _ in MAX_CELLS_ROWS])
def test_every_guarded_command_reads_max_cells(argv, cap, quantity, capsys):
    # one cell short of the count is refused, naming the quantity; the
    # default cap admits the same size
    assert main([*argv, "--max-cells", str(cap)]) == 3
    captured = capsys.readouterr()
    assert f"refusing: {quantity} exceeds the size cap {cap}\n" == captured.err
    assert captured.out == ""
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["verify-presentation", "--n", "4"],
    ["verify-blocks", "--n", "4"],
    ["verify-lemma-3-10", "--n", "3"],
    ["verify-lemma-4-4", "--n", "4", "--m", "3"],
    ["verify-schur-weyl", "--n", "4", "--m", "2"],
    ["verify-schur-weyl", "--n", "3", "--m", "3"],
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_verify_commands_take_the_grid_path(argv, monkeypatch, capsys):
    # a verify command guards, then checks, one row of a verify-all family:
    # its guard call is one that verify-all makes for the check's family, with
    # the same arguments, and its check call is one that verify-all makes
    calls = []

    def recorder(name):
        def record(*args, **kwargs):
            calls.append((name, args + tuple(kwargs.items())))
            return report(name, {}, [])
        return record

    guard_of = {}
    for check, guard, _ in cli.FAMILIES.values():
        module = sys.modules[check.__module__]
        monkeypatch.setattr(module, check.__name__, recorder(check.__name__))
        if guard:
            monkeypatch.setattr(caps, guard.__name__, recorder(guard.__name__))
            guard_of[check.__name__] = guard.__name__
    assert main(GRID) == 0
    grid = list(calls)
    calls.clear()
    assert main(argv) == 0
    capsys.readouterr()
    *guarded, (check, row) = calls
    assert (check, row) in grid
    if check in guard_of:
        assert guarded == [(guard_of[check], row + (("max_cells", D),))]
        assert guarded[0] in grid
    else:
        assert guarded == []


def test_verify_schur_weyl_refuses_negative_m_before_its_guard(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-schur-weyl", "--n", "99", "--m", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "need 0 <= m < n, got m=-1, n=99" in captured.err
    assert captured.out == ""


def test_block_bound_covers_stored_entries():
    for n in range(1, 6):
        stored = sum(
            len(row)
            for shape in all_shapes(n)
            for row in block_ideal(shape, n).basis.int_rows()
        )
        assert stored <= block_entries(n), n
    assert [block_entries(n) for n in range(1, 6)] == [2, 9, 70, 965, 24_786]
    check_block_cap(5, 24_786)
    with pytest.raises(SizeCapError) as exc:
        check_block_cap(5, 24_785)
    assert exc.value.value == 24_786
    # 935,557 entries at n = 6 pass the default cap; not run, only guarded
    check_block_cap(6, DEFAULT_MAX_CELLS)
    with pytest.raises(SizeCapError) as exc:
        check_block_cap(7, DEFAULT_MAX_CELLS)
    assert exc.value.value == 47_678_534


def test_verify_all_leaves_the_cached_rows_alone(capsys):
    # int_rows hands out the stored echelon rows, not copies, so no check of
    # the grid may write to the cached bases it reads
    shapes = all_shapes(4)
    cached = [block_ideal(shape, 4).basis for shape in shapes]
    cached += [specht_basis(shape, 4) for shape in shapes]
    before = [[dict(row) for row in basis.int_rows()] for basis in cached]
    code, _ = run_cli(capsys, "verify-all", "--n", "4", "--m", "3")
    assert code == 0
    after = [block_ideal(shape, 4).basis for shape in shapes]
    after += [specht_basis(shape, 4) for shape in shapes]
    assert all(a is b for a, b in zip(after, cached))
    assert [basis.int_rows() for basis in cached] == before


def test_specht_guard_admits_n8():
    # 1,749,482 swap-map entries pass the default cap; not run, only guarded
    check_specht_cap(8, DEFAULT_MAX_CELLS)
    with pytest.raises(SizeCapError) as exc:
        check_specht_cap(8, 1_749_481)
    assert exc.value.value == 1_749_482


@pytest.mark.parametrize("command", ["verify-blocks", "verify-lemma-3-10", "verify-all"])
def test_exhaustive_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "2", "--exhaustive"])
    assert exc.value.code == 2
    assert "--exhaustive" in capsys.readouterr().err


def test_cap_message_on_stderr(capsys):
    code = main(["enumerate", "--n", "12"])
    captured = capsys.readouterr()
    assert code == 3
    assert "refusing" in captured.err
    assert captured.out == ""


def test_verify_all_refuses_large_order(capsys):
    code = main(["verify-all", "--n", "9", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "refusing" in captured.err
    assert "rook monoid order at n=9" in captured.err
    assert captured.out == ""


def test_format_is_only_on_specht_dims(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--diagram", "1,2", "--diagram", "2,1", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["mul", "--diagram", "1,2", "--diagram", "2,1", "--max-cells", "5"], "--max-cells"),
        (["factorize", "--diagram", "2,0", "--n", "2"], "--n"),
    ],
)
def test_options_only_where_read(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {option}" in captured.err
    assert captured.out == ""


def test_symmetrizer_refuses_n8(capsys):
    started = time.monotonic()
    code = main(["symmetrizer", "--n", "8"])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 3
    assert "refusing" in captured.err
    assert "sym output cells terms*(n+1) at r=8, n=8 = 12975561" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


def test_symmetrizer_guard_admits_n7():
    # 130,922 terms of 8 cells each; not run, only guarded
    check_symmetrizer_cap("sym", 7, 7, DEFAULT_MAX_CELLS)
    with pytest.raises(SizeCapError) as exc:
        check_symmetrizer_cap("sym", 7, 7, 1_047_375)
    assert exc.value.value == 1_047_376
    # anti: (r+1)! = 24 terms of n + 1 = 5 cells
    with pytest.raises(SizeCapError) as exc:
        check_symmetrizer_cap("anti", 3, 4, 119)
    assert exc.value.value == 120


def test_e_element_refuses_n8(capsys):
    started = time.monotonic()
    code = main(["e-element", "--n", "8", "--lambda", "8"])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 3
    assert "quasi-idempotent term pairs at shape (8), n=8 = 10893468" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


def test_e_element_guard_admits_n6():
    # (6) at n = 6: the row's Jucys-Murphy chain of 2, 3, .., 6 terms, which
    # reaches 720 terms, then its six factors 1 - p_i of 2 terms, the last
    # product capped at |R_6| = 13327 terms; not run, only guarded
    check_quasi_idempotent_cap((6,), 6, DEFAULT_MAX_CELLS)
    with pytest.raises(SizeCapError) as exc:
        check_quasi_idempotent_cap((6,), 6, 72_165)
    chain = 2 + 6 + 24 + 120 + 720
    assert exc.value.value == 72_166 == chain + 2 * (720 + 1440 + 2880 + 5760 + 11520 + 13327)
    check_quasi_idempotent_cap((7,), 7, DEFAULT_MAX_CELLS)
    assert quasi_idempotent_pairs((7,), 7) == 842_080


def test_quasi_idempotent_bound_covers_counted_pairs(monkeypatch):
    pairs = []
    mul = AlgebraElement.__mul__

    def counting_mul(a, b):
        pairs.append(len(a.terms) * len(b.terms))
        return mul(a, b)

    monkeypatch.setattr(AlgebraElement, "__mul__", counting_mul)
    exact = set()
    for n in range(1, 6):
        for shape in all_shapes(n):
            for fill in (row_filled_tableau, column_filled_tableau):
                pairs.clear()
                tableau_quasi_idempotent(fill(shape, n))
                assert sum(pairs) <= quasi_idempotent_pairs(shape, n), (shape, n)
                if sum(pairs) == quasi_idempotent_pairs(shape, n):
                    exact.add((shape, n, fill))
    # the bound is exact, for both fillings, while no product merges terms:
    # the shapes () and (1) at every n, and (2) and (1, 1) at n = 2
    small = [((), n) for n in range(1, 6)] + [((1,), n) for n in range(1, 6)]
    small += [((2,), 2), ((1, 1), 2)]
    fills = (row_filled_tableau, column_filled_tableau)
    assert exact == {(shape, n, fill) for shape, n in small for fill in fills}


def test_absorption_bound_covers_counted_pairs(monkeypatch):
    # check_absorption multiplies e and y e factor by factor; the guard
    # counts at least the pairs it multiplies, so one pair fewer is refused
    pairs = []
    mul = AlgebraElement.__mul__

    def counting_mul(a, b):
        pairs.append(len(a.terms) * len(b.terms))
        return mul(a, b)

    monkeypatch.setattr(AlgebraElement, "__mul__", counting_mul)
    for n in range(1, 6):
        for m in range(n):
            pairs.clear()
            assert ideals.check_absorption(m, n)["pass"], (m, n)
            with pytest.raises(SizeCapError):
                check_absorption_cap(m, n, sum(pairs) - 1)


def test_usage_error_bad_diagram(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sign", "--diagram", "5,1"])
    assert exc.value.code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["sign", "--diagram", "1,2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["sign"] == 1


def test_out_flag_writes_the_bytes_stdout_gets(tmp_path, capsys):
    # 13,327 terms: the JSON text is streamed in several blocks
    argv = ["symmetrizer", "--n", "6"]
    code, out = run_cli(capsys, *argv)
    target = tmp_path / "symmetrizer.json"
    assert main([*argv, "--out", str(target)]) == code == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_verify_all_carries_the_witnesses_of_failing_assertions(monkeypatch, capsys):
    def counting(n):
        return report(
            "counting",
            {"n": n},
            [assertion("holds", True, {"n": n}), assertion("breaks", n != 2, {"seen": [n, 0]})],
        )

    monkeypatch.setattr(verify, "check_counting", counting)
    code, data = run_json(capsys, "verify-all", "--n", "2", "--m", "1")
    assert code == 1 and data["pass"] is False
    rows = {a["name"]: a for a in data["assertions"]}
    assert rows["counting(n=1)"] == {"name": "counting(n=1)", "pass": True, "witness": None}
    assert rows["counting(n=2)"] == {
        "name": "counting(n=2)",
        "pass": False,
        "witness": [{"name": "breaks", "witness": {"seen": [2, 0]}}],
    }
    assert [name for name, a in rows.items() if not a["pass"]] == ["counting(n=2)"]


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "verify-blocks", "--n", "2")
    _, second = run_cli(capsys, "verify-blocks", "--n", "2")
    assert first == second


def test_console_script_entry_point():
    # the child imports the same package the tests do
    src = os.path.dirname(os.path.dirname(rookmonoid.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rookmonoid", "enumerate", "--n", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 2


def test_failing_report_exits_one():
    from rookmonoid.cli import _report_exit

    class Args:
        format = "json"
        out = None

    failing = {"check": "x", "params": {}, "pass": False, "assertions": []}
    assert _report_exit(failing, Args()) == 1
