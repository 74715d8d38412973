"""Command-line behavior: outputs and exit codes."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import condalg as c
from condalg import cli
from condalg.cli import main
from helpers import condition_nested, paper_rp, paper_se


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_free(capsys):
    code, out, _ = run(capsys, "normalize", "--system", "free", "a")
    assert code == 0
    assert out == "T <| a |> F\n"


def test_normalize_static_requires_sigma(capsys):
    code, _, err = run(capsys, "normalize", "--system", "static", "a")
    assert code == 2
    assert "--sigma" in err


def test_normalize_sigma_rejected_for_non_static(capsys):
    code, _, err = run(capsys, "normalize", "--system", "rp", "--sigma", "a", "a")
    assert code == 2


def test_normalize_static(capsys):
    code, out, _ = run(
        capsys, "normalize", "--system", "static", "--sigma", "ab", "a"
    )
    assert code == 0
    # the layered form over ab: the root queries b, both children query a
    assert out == "(T <| a |> F) <| b |> (T <| a |> F)\n"


def test_normalize_budget_exhaustion(capsys):
    text = "a <| a |> a"
    for _ in range(21):
        text = f"a <| ({text}) |> a"
    code, _, err = run(capsys, "normalize", "--system", "free", text)
    assert code == 3
    assert "budget" in err


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------


def test_tree_se(capsys):
    code, out, _ = run(
        capsys, "tree", "--semantics", "se", "a <| (F <| a |> T) |> F"
    )
    assert code == 0
    assert out == "(F <a> (T <a> F))\n"


def test_tree_sse_with_sigma(capsys):
    code, out, _ = run(
        capsys,
        "tree", "--semantics", "sse", "--sigma", "ba", "(a <| b |> F) <| a |> T",
    )
    assert code == 0
    assert out == "((T <b> F) <a> (T <b> T))\n"


def test_tree_sse_needs_sigma(capsys):
    code, _, err = run(capsys, "tree", "--semantics", "sse", "a")
    assert code == 2


def test_tree_json_format(capsys):
    code, out, _ = run(
        capsys, "tree", "--semantics", "se", "--format", "json", "a"
    )
    assert code == 0
    assert out == '{"atom":"a","t":"T","f":"F"}\n'


def test_tree_dot_format(capsys):
    code, out, _ = run(capsys, "tree", "--semantics", "se", "--format", "dot", "a")
    assert code == 0
    assert out.startswith("digraph evaltree {")
    assert 'label="T"' in out


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------


def test_equiv_rp_pair(capsys):
    code, out, _ = run(
        capsys,
        "equiv", "--system", "rp", "T <| a |> a", "T <| a |> (F <| a |> F)",
    )
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_free_pair(capsys):
    code, out, _ = run(
        capsys,
        "equiv", "--system", "free", "T <| a |> a", "T <| a |> (F <| a |> F)",
    )
    assert code == 1
    assert out == "not equivalent\n"


def test_equiv_usage_error_is_not_conflated(capsys):
    code, _, err = run(capsys, "equiv", "--system", "free", "T <|", "F")
    assert code == 2
    assert "position" in err


def test_equiv_static_multiatom_sigma(capsys):
    code, out, _ = run(
        capsys,
        "equiv", "--system", "static", "--sigma", '"aa","b"',
        "aa <| b |> F", "b <| aa |> F",
    )
    assert code == 0
    assert out == "equivalent\n"


def test_bad_sigma_is_usage_error(capsys):
    code, _, err = run(
        capsys, "equiv", "--system", "static", "--sigma", "aB", "a", "a"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_golden(capsys):
    code, out, _ = run(capsys, "table", "--sigma", "ab", "(a <| b |> F) <| a |> T")
    assert code == 0
    assert out.splitlines() == [
        "a b | (a <| b |> F) <| a |> T",
        "T T | T",
        "T F | F",
        "F T | T",
        "F F | T",
    ]


def test_table_json(capsys):
    code, out, _ = run(
        capsys, "table", "--sigma", "a", "--format", "json", "F <| a |> F"
    )
    assert code == 0
    assert out.strip() == (
        '{"sigma":["a"],"rows":[{"assignment":[true],"value":false},'
        '{"assignment":[false],"value":false}]}'
    )


def test_table_alphabet_error(capsys):
    code, _, err = run(capsys, "table", "--sigma", "a", "T <| b |> F")
    assert code == 2


# ---------------------------------------------------------------------------
# desugar / eval
# ---------------------------------------------------------------------------


def test_desugar(capsys):
    code, out, _ = run(capsys, "desugar", "!a && a")
    assert code == 0
    assert out == "a <| (F <| a |> T) |> F\n"


def test_eval_with_state(capsys):
    expr = '("(n=n+1)" && "(n=n+1)") && "(n==2)"'
    code, out, _ = run(capsys, "eval", "--state", "n=0", expr)
    assert code == 0
    assert out == "T\n"
    code, out, _ = run(capsys, "eval", "--state", "n=1", expr)
    assert code == 0
    assert out == "F\n"


def test_eval_unknown_register(capsys):
    code, _, err = run(capsys, "eval", '"(n=n+1)"')
    assert code == 2
    assert "register" in err


def test_eval_refuses_a_register_given_twice(capsys):
    code, out, err = run(capsys, "eval", "--state", "n=0,n=3", '"(n==3)"')
    assert (code, out) == (2, "")
    assert err == "condalg: register 'n' is assigned twice\n"


# ---------------------------------------------------------------------------
# check-axioms / witnesses
# ---------------------------------------------------------------------------


def test_check_axioms_cp(capsys):
    code, out, _ = run(capsys, "check-axioms", "--system", "CP", "--pool-depth", "1")
    assert code == 0
    assert "CP4" in out
    assert "all hold" in out
    assert "FAIL" not in out


def test_check_axioms_cprp(capsys):
    code, out, _ = run(capsys, "check-axioms", "--system", "CPrp", "--pool-depth", "1")
    assert code == 0
    assert "CPrp1" in out and "CPrp2" in out


def test_check_axioms_instance_budget(capsys):
    # six-variable laws over the depth-1 pool cross the instance cap
    code, _, err = run(capsys, "check-axioms", "--system", "CPmem", "--pool-depth", "1")
    assert code == 3
    assert "CPmem" in err and "budget" in err
    code, out, _ = run(capsys, "check-axioms", "--system", "CPmem", "--pool-depth", "0")
    assert code == 0
    assert "all hold" in out


def test_check_axioms_refuses_a_deep_pool_before_building_it():
    # Depth 4 has about 1.3e10 basic forms; depth 1000's count would not
    # fit in memory.  The process may use 512 MB.
    for depth in ("4", "1000"):
        done, seconds = condalg_process(
            "check-axioms", "--system", "CPrp", "--pool-depth", depth, memory_mb=512
        )
        assert done.returncode == 3
        assert "CPrp1" in done.stderr and "budget" in done.stderr
        assert seconds < 1.0


def test_witnesses(capsys):
    code, out, _ = run(capsys, "witnesses")
    assert code == 0
    assert "all witnesses verified" in out
    assert "T <| a |> a" in out


# ---------------------------------------------------------------------------
# --out
# ---------------------------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run(
        capsys, "normalize", "--system", "free", "a", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "T <| a |> F\n"


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# dispatch: every congruence the CLI names agrees with the library route
# ---------------------------------------------------------------------------

SIGMA_AB = c.Sigma.of("a", "b")

# (--system value, --sigma arguments, the congruence it names)
CLI_SYSTEMS = [
    ("free", (), c.FREE),
    ("rp", (), c.RP),
    ("cr", (), c.CR),
    ("mem", (), c.MEM),
    ("static", ("--sigma", "ab"), c.static(SIGMA_AB)),
]

# (--semantics value, --sigma arguments, the congruence its tree decides)
CLI_SEMANTICS = [
    ("se", (), c.FREE),
    ("rpse", (), c.RP),
    ("cse", (), c.CR),
    ("mse", (), c.MEM),
    ("sse", ("--sigma", "ab"), c.static(SIGMA_AB)),
]

# A term every transform changes differently, and pairs separating the
# lattice levels.
DISPATCH_TERM = "((a <| a |> F) <| (b <| a |> F) |> a) <| a |> (b <| a |> (T <| a |> F))"
DISPATCH_PAIRS = [
    ("T <| a |> a", "T <| a |> (F <| a |> F)"),
    ("(T <| a |> F) <| a |> F", "T <| a |> F"),
    ("T <| a |> (F <| b |> (T <| a |> F))", "T <| a |> (F <| b |> F)"),
    ("F <| a |> F", "F"),
    ("a <| b |> F", "b <| a |> F"),
]


@pytest.mark.parametrize("system,sigma_args,kind", CLI_SYSTEMS)
def test_normalize_dispatch_matches_library(capsys, system, sigma_args, kind):
    code, out, _ = run(capsys, "normalize", "--system", system, *sigma_args, DISPATCH_TERM)
    assert code == 0
    assert out == c.render_term(c.normal_form(c.parse_term(DISPATCH_TERM), kind)) + "\n"


@pytest.mark.parametrize("system,sigma_args,kind", CLI_SYSTEMS)
def test_equiv_dispatch_matches_library(capsys, system, sigma_args, kind):
    for left, right in DISPATCH_PAIRS:
        same = c.equivalent(c.parse_term(left), c.parse_term(right), kind)
        code, out, _ = run(capsys, "equiv", "--system", system, *sigma_args, left, right)
        assert (code, out) == ((0, "equivalent\n") if same else (1, "not equivalent\n"))


@pytest.mark.parametrize("semantics,sigma_args,kind", CLI_SEMANTICS)
def test_tree_dispatch_matches_library(capsys, semantics, sigma_args, kind):
    code, out, _ = run(capsys, "tree", "--semantics", semantics, *sigma_args, DISPATCH_TERM)
    assert code == 0
    tree = c.transformed_tree(c.parse_term(DISPATCH_TERM), kind)
    assert out == c.render_tree(tree) + "\n"


@pytest.mark.parametrize(
    "system,kind_name",
    [
        ("CP", "free"),
        ("CPrp", "rp"),
        ("CPcr", "cr"),
        ("CPmem", "mem"),
        ("CPs", "static(ab)"),
        ("CPst", "static(ab)"),
    ],
)
def test_check_axioms_runs_each_system_under_its_own_kind(capsys, system, kind_name):
    code, out, _ = run(capsys, "check-axioms", "--system", system, "--pool-depth", "0")
    assert code == 0
    assert out.splitlines()[0] == f"system {system} under {kind_name}: pool of 2 terms"
    assert "FAIL" not in out


def test_eval_non_ascii_digit_is_an_input_error(capsys):
    # '²' passes str.isdigit but is no digit of the register grammar
    code, out, err = run(capsys, "eval", "--state", "n=0", '"(n==²)"')
    assert code == 2
    assert out == ""
    assert "register expression" in err


def test_eval_state_non_ascii_digit_is_an_input_error(capsys):
    code, out, err = run(capsys, "eval", "--state", "n=٣", '"(n==3)"')
    assert code == 2
    assert out == ""
    assert "register assignment" in err


def test_unwritable_out_file_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "equiv", "--system", "free", "--out", str(target), "a", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("condalg: ") and err.count("\n") == 1
    assert str(target) in err


def test_a_20000_connective_chain_desugars(capsys):
    code, out, err = run(capsys, "desugar", " && ".join(["a"] * 20_001))
    assert code == 0
    assert err == ""
    # ((a && a) && a) ... is a <| (a <| (... (a <| a |> F) ...) |> F) |> F
    assert out == "a <| (" * 19_999 + "a <| a |> F" + ") |> F" * 19_999 + "\n"


def test_an_unmapped_exception_exits_with_the_internal_error_code(capsys, monkeypatch):
    def broken(args):
        raise KeyError("missing")

    monkeypatch.setitem(cli._COMMANDS, "witnesses", broken)
    code, out, err = run(capsys, "witnesses")
    assert code == 4
    assert out == ""
    assert err == "condalg: internal error: KeyError: 'missing'\n"


def test_main_restores_the_recursion_limit(capsys):
    # A limit of the test's own, since an earlier main() may have left one.
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1_500)
    try:
        assert run(capsys, "witnesses")[0] == 0
        assert sys.getrecursionlimit() == 1_500
    finally:
        sys.setrecursionlimit(before)


def test_a_50000_deep_term_normalizes(capsys):
    text = "a <| a |> (" * 50_000 + "a <| a |> a" + ")" * 50_000
    code, out, err = run(capsys, "normalize", "--system", "free", text)
    assert (code, err) == (0, "")
    # bf(a <| a |> R) is (T <| a |> F) <| a |> bf(R)
    a = "(T <| a |> F)"
    assert out == f"{a} <| a |> (" * 50_000 + f"{a} <| a |> {a}" + ")" * 50_000 + "\n"
    # With "(a)" innermost, the same depth is a syntax error at its ")".
    text = "a <| a |> (" * 50_000 + "a" + ")" * 50_000
    code, out, err = run(capsys, "normalize", "--system", "free", text)
    assert (code, out) == (2, "")
    assert err == f"condalg: expected '<|', found ')' (at position {11 * 50_000 + 1})\n"


def test_equiv_compares_shared_trees_quickly(capsys):
    # t_6 of t_{k+1} = t_k <| t_k |> t_k: se builds each tree in a few
    # hundred objects, but counted as a tree it is far too large to walk.
    text = "a <| a |> a"
    for _ in range(6):
        text = f"({text}) <| ({text}) |> ({text})"
    start = time.perf_counter()
    code, out, _ = run(capsys, "equiv", "--system", "free", text, text)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "equivalent\n")
    code, out, _ = run(capsys, "normalize", "--system", "cr", text)
    assert (code, out) == (0, "T <| a |> F\n")


def condalg_process(
    *argv: str, memory_mb: int | None = None
) -> tuple[subprocess.CompletedProcess, float]:
    """Run the CLI in a fresh interpreter, killed after 10 s, so that a
    command that hangs fails its test instead of stalling the suite; with
    the wall time it took.  ``memory_mb`` caps its address space."""
    src = str(Path(c.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def cap_memory() -> None:
        limit = memory_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "condalg.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
        preexec_fn=cap_memory if memory_mb is not None else None,
    )
    return done, time.perf_counter() - start


def test_static_normalize_over_a_wide_order_exits_on_the_budget():
    # 2^27 - 1 nodes counted as a tree: the budget fires, no hang.
    done, _ = condalg_process(
        "normalize", "--system", "static", "--sigma", "abcdefghijklmnopqrstuvwxyz", "a"
    )
    assert done.returncode == 3
    assert done.stderr == f"condalg: sbf would have at least {2**27 - 1} nodes, over the budget of 1000000\n"


def test_static_equiv_over_a_wide_order_exits_on_the_budget():
    # The static tree over 26 atoms has 2^27 - 1 nodes counted as a tree:
    # refused before anything is built.
    sigma = ("--sigma", "abcdefghijklmnopqrstuvwxyz")
    for argv in (("equiv", "--system", "static", *sigma, "a", "a"), ("tree", "--semantics", "sse", *sigma, "a")):
        done, seconds = condalg_process(*argv)
        assert done.returncode == 3
        assert done.stderr == f"condalg: sse would have at least {2**27 - 1} nodes, over the budget of 1000000\n"
        assert seconds < 5.0


def test_rp_decides_and_normalizes_shared_terms_quickly():
    # t_6 is 4.4 KB of text; its rp tree and rp form have about 2^65
    # nodes counted as a tree, over a few hundred objects.
    t6 = c.render_term(condition_nested(6))
    done, seconds = condalg_process("equiv", "--system", "rp", t6, t6)
    assert (done.returncode, done.stdout) == (0, "equivalent\n")
    assert seconds < 1.0
    done, seconds = condalg_process("normalize", "--system", "rp", t6)
    assert done.returncode == 3
    assert done.stderr.startswith("condalg: rpf would have at least ")
    assert done.stderr.endswith(" nodes, over the budget of 1000000\n")
    assert seconds < 1.0
    # Printing a tree writes it in full, so t_3's (511 nodes) stands in.
    t3 = condition_nested(3)
    done, _ = condalg_process("tree", "--semantics", "rpse", c.render_term(t3))
    assert (done.returncode, done.stdout) == (0, c.render_tree(paper_rp(paper_se(t3))) + "\n")


def test_tree_of_a_shared_term_exits_on_the_budget():
    # se(t_6) and rpse(t_6) are a few hundred objects, but 2^65 - 1 nodes
    # counted as a tree: tree counts them before writing anything, and
    # equiv still compares them under every congruence.
    t6 = c.render_term(condition_nested(6))
    for semantics in ("se", "rpse"):
        done, seconds = condalg_process("tree", "--semantics", semantics, t6)
        assert done.returncode == 3
        assert done.stderr == (
            f"condalg: tree would have at least {2**65 - 1} nodes, over the budget of 1000000\n"
        )
        assert seconds < 1.0
    for system in (("free",), ("rp",), ("cr",), ("mem",), ("static", "--sigma", "a")):
        done, _ = condalg_process("equiv", "--system", *system, t6, t6)
        assert (done.returncode, done.stdout) == (0, "equivalent\n")


def test_main_reuses_one_parser(capsys):
    commands = [
        ["normalize", "--system", "static", "--sigma", "ab", "a"],
        ["equiv", "--system", "rp", "T <| a |> a", "T <| a |> (F <| a |> F)"],
        ["normalize", "--system", "bogus", "a"],
        ["table", "--sigma", "ab", "--format", "json", "a <| b |> F"],
        ["tree", "--semantics", "mse", "a <| a |> F"],
        ["equiv", "--system", "free", "T <| a |> a", "T <| a |> (F <| a |> F)"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    outcome(["witnesses"])  # builds the parser, if no earlier test has
    warm = [outcome(argv) for argv in commands]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert warm == fresh
    assert warm[2][0] == 2 and "invalid choice" in warm[2][2]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["equiv", "-h"],
        ["normalize", "--h"],
        ["bogus"],
        ["bogus", "-h"],
        ["--system", "free", "normalize", "a"],
        ["normalize"],
        ["equiv", "--system", "rp", "a"],
        ["normalize", "--system", "free", "a", "b"],
        ["normalize", "--system", "free", "a", "--bogus"],
        ["normalize", "--system", "bogus", "a"],
        ["normalize", "--system", "free", "--", "a"],
        ["normalize", "--system", "static", "--sigma", "ab", "a"],
        ["tree", "--semantics", "sse", "--sigma", "a", "--format", "json", "a"],
        ["check-axioms", "--system", "CP", "--pool-depth", "x"],
        ["witnesses", "extra"],
        ["witnesses"],
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_command_parser_matches_the_full_parser(capsys, argv):
    # cli._parse hands a command's arguments to that command's parser:
    # the namespace, output and exit code must be the full parser's.
    def outcome(parse):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    assert outcome(cli._parse) == outcome(cli._build_parser().parse_args)
