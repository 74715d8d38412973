"""Command-line front end.

Exit codes: 0 success (for ``equiv``: equivalent), 1 negative result
(``equiv``: not equivalent; ``check-axioms``: some instance failed),
2 usage or input errors (also an output file that cannot be written),
3 a resource budget (nodes or axiom instances) ran out, 4 internal
error: any other exception, reported on one line as ``condalg: internal
error: <type>: <message>``, so that a bug never exits with a verdict's
code.  Nothing in the library recurses, so input of any nesting depth
runs at the interpreter's default recursion limit.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter

from .congruence import (
    DEFAULT_INSTANCE_BUDGET,
    KIND_LEVEL,
    SYSTEM_LEVEL,
    SYSTEMS,
    TREE_ROUTES,
    CongruenceKind,
    check_axioms,
    check_instance_budget,
    equivalent,
    normal_form,
    render_truth_table,
    separation_witnesses,
    static,
    transformed_tree,
    truth_table,
)
from .errors import DEFAULT_NODE_BUDGET, BudgetError, CondAlgError, NodeBudgetError
from .evaltrees import evaluate_with_oracle, render_tree, tree_children
from .shortcircuit import desugar, make_register_oracle, parse_register_state, parse_sc
from .terms import (
    Atom,
    Sigma,
    count_basic_forms,
    enumerate_basic_forms,
    fold,
    parse_term,
    render_term,
)

# ``tree --semantics`` names the tree function itself (se, rpse, ...).
_SEMANTICS_TAG = {route.__name__: tag for tag, route in TREE_ROUTES.items()}
_TAG_AT_LEVEL = {level: tag for tag, level in KIND_LEVEL.items()}


class UsageError(Exception):
    pass


def _parse_sigma(text: str) -> Sigma:
    """``ab`` means the single-letter atoms a then b; multi-character atoms
    are given comma-separated, optionally double-quoted."""
    names: list[str] = []
    if "," in text:
        for chunk in text.split(","):
            name = chunk.strip()
            if len(name) >= 2 and name.startswith('"') and name.endswith('"'):
                name = name[1:-1]
            if not name:
                raise UsageError(f"empty atom in sigma {text!r}")
            names.append(name)
    else:
        for c in text:
            if not c.islower() or not c.isalpha():
                raise UsageError(
                    f"sigma {text!r} must be single-letter atoms; use commas for longer names"
                )
            names.append(c)
    if not names:
        raise UsageError("sigma must not be empty")
    return Sigma(tuple(Atom(n) for n in names))


def _resolve_kind(
    tag: str, sigma_text: str | None, static_option: str = "--system static"
) -> CongruenceKind:
    """The congruence ``tag`` names; only the static one takes ``--sigma``,
    and ``static_option`` is how the command's flags select it."""
    if tag == "static":
        if sigma_text is None:
            raise UsageError(f"--sigma is required when {static_option}")
        return static(_parse_sigma(sigma_text))
    if sigma_text is not None:
        raise UsageError(f"--sigma is only meaningful with {static_option}")
    return CongruenceKind(tag)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        print(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


# Building the parser costs more than most commands, so a process that
# calls ``main`` repeatedly builds it once; parsing does not change it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condalg",
        description="Conditional statements: normal forms, evaluation trees, "
        "and valuation congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's own parser, by name, for ``_parse``.
    parser.commands = sub.choices

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    p_norm = sub.add_parser("normalize", help="print a term's normal form")
    p_norm.add_argument("--system", required=True, choices=list(KIND_LEVEL))
    p_norm.add_argument("--sigma", help="evaluation order (static only)")
    p_norm.add_argument("term")
    add_out(p_norm)

    p_tree = sub.add_parser("tree", help="print a term's (transformed) evaluation tree")
    p_tree.add_argument("--semantics", required=True, choices=list(_SEMANTICS_TAG))
    p_tree.add_argument("--sigma", help="evaluation order (sse only)")
    p_tree.add_argument("--format", default="text", choices=["text", "json", "dot"])
    p_tree.add_argument("term")
    add_out(p_tree)

    p_equiv = sub.add_parser("equiv", help="decide a valuation congruence")
    p_equiv.add_argument("--system", required=True, choices=list(KIND_LEVEL))
    p_equiv.add_argument("--sigma", help="evaluation order (static only)")
    p_equiv.add_argument("left")
    p_equiv.add_argument("right")
    add_out(p_equiv)

    p_table = sub.add_parser("table", help="print a term's truth table")
    p_table.add_argument("--sigma", required=True)
    p_table.add_argument("--format", default="text", choices=["text", "json"])
    p_table.add_argument("term")
    add_out(p_table)

    p_desugar = sub.add_parser("desugar", help="rewrite !, && and || into conditionals")
    p_desugar.add_argument("expr")
    add_out(p_desugar)

    p_axioms = sub.add_parser("check-axioms", help="check an axiom system over a term pool")
    p_axioms.add_argument("--system", required=True, choices=list(SYSTEMS))
    p_axioms.add_argument("--pool-depth", type=int, default=1)
    add_out(p_axioms)

    p_eval = sub.add_parser("eval", help="evaluate an expression against register state")
    p_eval.add_argument("--state", default="", help="comma-separated name=int assignments")
    p_eval.add_argument("expr")
    add_out(p_eval)

    p_wit = sub.add_parser("witnesses", help="show the lattice separation witnesses")
    add_out(p_wit)

    return parser


# check-axioms instantiates over the basic forms on this fixed alphabet and
# checks each system under its own congruence, the one at the system's
# lattice height (sigma: the alphabet in order).
_AXIOM_ALPHABET = (Atom("a"), Atom("b"))


def _cmd_normalize(args: argparse.Namespace) -> int:
    kind = _resolve_kind(args.system, args.sigma)
    term = parse_term(args.term)
    _emit(render_term(normal_form(term, kind)), args.out)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    term = parse_term(args.term)
    kind = _resolve_kind(_SEMANTICS_TAG[args.semantics], args.sigma, "--semantics sse")
    tree = transformed_tree(term, kind)
    # Every format writes the tree in full: count it as a tree first.
    size = fold(tree, tree_children, lambda x, sizes: 1 + sum(sizes))
    if size > DEFAULT_NODE_BUDGET:
        raise NodeBudgetError("tree", size, DEFAULT_NODE_BUDGET)
    fmt = "ascii" if args.format == "text" else args.format
    _emit(render_tree(tree, fmt), args.out)
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    kind = _resolve_kind(args.system, args.sigma)
    left = parse_term(args.left)
    right = parse_term(args.right)
    same = equivalent(left, right, kind)
    _emit("equivalent" if same else "not equivalent", args.out)
    return 0 if same else 1


def _cmd_table(args: argparse.Namespace) -> int:
    sigma = _parse_sigma(args.sigma)
    term = parse_term(args.term)
    table = truth_table(term, sigma)
    _emit(render_truth_table(table, args.format, title=render_term(term)), args.out)
    return 0


def _cmd_desugar(args: argparse.Namespace) -> int:
    _emit(render_term(desugar(parse_sc(args.expr))), args.out)
    return 0


def _cmd_check_axioms(args: argparse.Namespace) -> int:
    if args.pool_depth < 0:
        raise UsageError("--pool-depth must be nonnegative")
    # The pool squares in size at each depth: check the budget on its size
    # before building it.  Its alphabet is empty at depth 0.
    size = count_basic_forms(len(_AXIOM_ALPHABET), args.pool_depth, DEFAULT_INSTANCE_BUDGET)
    atom_count = len(_AXIOM_ALPHABET) if args.pool_depth else 0
    check_instance_budget(args.system, size, atom_count, DEFAULT_INSTANCE_BUDGET)
    pool = enumerate_basic_forms(_AXIOM_ALPHABET, args.pool_depth)
    tag = _TAG_AT_LEVEL[SYSTEM_LEVEL[args.system]]
    kind = CongruenceKind(tag, Sigma(_AXIOM_ALPHABET) if tag == "static" else None)
    reports = check_axioms(args.system, pool, kind)
    totals = Counter(report.axiom_name for report in reports)
    failures = Counter(report.axiom_name for report in reports if not report.holds)
    lines = [f"system {args.system} under {kind}: pool of {len(pool)} terms"]
    for name in totals:
        if failures[name]:
            lines.append(f"{name}: {failures[name]} of {totals[name]} instances FAIL")
        else:
            lines.append(f"{name}: {totals[name]} instances, all hold")
    _emit("\n".join(lines), args.out)
    return 1 if failures.total() else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    oracle = make_register_oracle(parse_register_state(args.state))
    term = desugar(parse_sc(args.expr))
    result = evaluate_with_oracle(term, oracle)
    _emit("T" if result else "F", args.out)
    return 0


def _cmd_witnesses(args: argparse.Namespace) -> int:
    lines = []
    for left, right, finer, coarser in separation_witnesses():
        lines.append(
            f"{render_term(left)}  vs  {render_term(right)}: "
            f"equivalent under {coarser}, distinct under {finer}"
        )
    lines.append("all witnesses verified")
    _emit("\n".join(lines), args.out)
    return 0


_COMMANDS = {
    "normalize": _cmd_normalize,
    "tree": _cmd_tree,
    "equiv": _cmd_equiv,
    "table": _cmd_table,
    "desugar": _cmd_desugar,
    "check-axioms": _cmd_check_axioms,
    "eval": _cmd_eval,
    "witnesses": _cmd_witnesses,
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with the top-level pass
    skipped when ``argv`` names a command: that command's parser reads
    the rest.  Anything else, including arguments the command's parser
    leaves over, goes to the full parser, so every message and exit code
    is the full parser's."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if argv:
        command = parser.commands.get(argv[0])
        if command is not None:
            args, extras = command.parse_known_args(argv[1:])
            if not extras:
                args.command = argv[0]
                return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetError as exc:
        print(f"condalg: {exc}", file=sys.stderr)
        return 3
    except (UsageError, CondAlgError, ValueError, OSError) as exc:
        print(f"condalg: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"condalg: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
