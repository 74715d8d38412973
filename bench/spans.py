"""Spans around calls into condalg's public functions, for the traced run.

The tracer rebinds each hooked function, in every ``condalg`` module that
imported it, to a wrapper that records a span, and restores the original
bindings afterwards, so untraced requests run the unmodified program.  A
recursive function (``se``, ``rp``, ``_bf``) calls itself through the
module global, so a call made while a span of the same name is open runs
unwrapped and its time counts to the outer span.  ``sse`` and ``sbf`` are
opaque: each is one span, and nothing below it is recorded.

Spans live in parallel arrays and are written out once, at the end.
Output sizes (``out_nodes``: conditionals or tree nodes counted as a
tree; ``out_objects``: distinct such objects) are counted after a span
closes, on a paused clock: span times, and the traced request totals,
exclude the counting.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

from classical import fold


def _tree_kids(x):
    return (x.left, x.right) if hasattr(x, "atom") else ()


def _term_kids(x):
    return (x.true_branch, x.condition, x.false_branch) if hasattr(x, "condition") else ()


def dag_sizes(root, kids) -> tuple[int, int]:
    """(internal nodes counted as a tree, distinct internal node objects)."""
    objects = 0

    def combine(node, sizes):
        nonlocal objects
        if not sizes:
            return 0
        objects += 1
        return 1 + sum(sizes)

    return fold(root, kids, combine), objects


def _tree_out(stats, args, out, tracer):
    nodes, objects = dag_sizes(out, _tree_kids)
    stats["out_nodes"] += nodes
    stats["out_objects"] += objects
    return nodes, objects


def _se_out(stats, args, out, tracer):
    nodes, objects = _tree_out(stats, args, out, tracer)
    tracer.request_tree[0] += nodes
    tracer.request_tree[1] += objects


def _transform_out(stats, args, out, tracer):
    _tree_out(stats, args, out, tracer)
    stats["unchanged"] += out is args[0]


def _term_out(stats, args, out, tracer):
    # The private basic-form helper returns (term, sizes...).
    term = out[0] if isinstance(out, tuple) else out
    nodes, objects = dag_sizes(term, _term_kids)
    stats["out_nodes"] += nodes
    stats["out_objects"] += objects


def _chars_in(stats, args, out, tracer):
    stats["chars"] += len(args[0])


def _chars_out(stats, args, out, tracer):
    stats["chars"] += len(out)


def _rows(stats, args, out, tracer):
    stats["rows"] += len(out.rows)


def _instances(stats, args, out, tracer):
    stats["instances"] += len(out)


# (module, attributes, span name, output measure, opaque).  Where the
# library composes a public function through its private helper (rpbf is
# _rpf after _bf), the helper is hooked under the public name; a helper
# that a later version no longer has is skipped.
HOOKS = [
    ("cli", ("main",), "cli.main", None, False),
    ("terms", ("parse_term",), "terms.parse_term", _chars_in, False),
    ("terms", ("render_term",), "terms.render_term", _chars_out, False),
    ("shortcircuit", ("parse_sc",), "shortcircuit.parse_sc", None, False),
    ("shortcircuit", ("desugar",), "shortcircuit.desugar", None, False),
    ("evaltrees", ("se",), "evaltrees.se", _se_out, False),
    ("evaltrees", ("render_tree",), "evaltrees.render_tree", _chars_out, False),
    ("treetransform", ("rp",), "treetransform.rp", _transform_out, False),
    ("treetransform", ("cr",), "treetransform.cr", _transform_out, False),
    ("treetransform", ("mem",), "treetransform.mem", _transform_out, False),
    ("treetransform", ("sse",), "treetransform.sse", _tree_out, True),
    ("normalform", ("bf", "_bf"), "normalform.bf", _term_out, False),
    ("normalform", ("rpf", "_rpf"), "normalform.rpf", _term_out, False),
    ("normalform", ("cf", "_cf"), "normalform.cf", _term_out, False),
    ("normalform", ("mf", "_mf"), "normalform.mf", _term_out, False),
    ("normalform", ("sbf",), "normalform.sbf", _term_out, True),
    ("congruence", ("equivalent",), "congruence.compare", None, False),
    ("congruence", ("truth_table",), "congruence.truth_table", _rows, False),
    ("congruence", ("render_truth_table",), "congruence.render_truth_table", None, False),
    ("congruence", ("check_axioms",), "congruence.check_axioms", _instances, False),
]


class Tracer:
    """Records spans (name, start, end, parent, request) and per-name
    totals: calls, self time and the counters the measures add."""

    def __init__(self, budget_error):
        self.budget_error = budget_error
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.request_ids = array("l")
        self.parents = array("l")
        self.name_col = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[list] = []
        self.active: dict[str, int] = defaultdict(int)
        self.opaque = 0
        self.paused = 0.0
        self.request = -1
        self.request_tree = [0, 0]
        self.tree_ratios: list[float] = []
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.budget_errors = 0
        self._last_budget_error = None
        self._saved: list[tuple[dict, str, object]] = []

    def now(self) -> float:
        return perf_counter() - self.paused

    # -- binding ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every hooked function in every loaded condalg module."""
        modules = [m for n, m in sys.modules.items() if n == "condalg" or n.startswith("condalg.")]
        swaps = {}
        for mod_name, attrs, name, measure, opaque in HOOKS:
            module = sys.modules.get(f"condalg.{mod_name}")
            for attr in attrs:
                original = getattr(module, attr, None)
                if callable(original):
                    swaps[id(original)] = (original, self._wrap(original, name, measure, opaque))
        namespaces = []
        for module in modules:
            namespaces.append(vars(module))
            namespaces.extend(v for v in vars(module).values() if type(v) is dict)
        for ns in namespaces:
            for key, value in list(ns.items()):
                swap = swaps.get(id(value))
                if swap is not None and swap[0] is value:
                    self._saved.append((ns, key, value))
                    ns[key] = swap[1]

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._saved):
            ns[key] = value
        self._saved.clear()

    def _wrap(self, fn, name, measure, opaque):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.opaque or tracer.active[name]:
                return fn(*args, **kwargs)
            label = f"{name}.{args[0]}" if name == "congruence.check_axioms" else name
            tracer._open(label, name, opaque)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, opaque)
                if isinstance(exc, tracer.budget_error) and exc is not tracer._last_budget_error:
                    tracer._last_budget_error = exc
                    tracer.budget_errors += 1
                raise
            stats = tracer._close(name, opaque)
            if measure is not None:
                start = perf_counter()
                measure(stats, args, out, tracer)
                tracer.paused += perf_counter() - start
            return out

        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, label, name, opaque):
        name_id = self.name_ids.get(label)
        if name_id is None:
            name_id = self.name_ids[label] = len(self.names)
            self.names.append(label)
        index = len(self.starts)
        self.request_ids.append(self.request)
        self.parents.append(self.stack[-1][0] if self.stack else -1)
        self.name_col.append(name_id)
        self.active[name] += 1
        self.opaque += opaque
        start = self.now()
        self.starts.append(start)
        self.ends.append(start)
        self.stack.append([index, label, start, 0.0])

    def _close(self, name, opaque):
        end = self.now()
        index, label, start, child = self.stack.pop()
        self.ends[index] = end
        self.active[name] -= 1
        self.opaque -= opaque
        duration = end - start
        if self.stack:
            self.stack[-1][3] += duration
        stats = self.stats[label]
        stats["calls"] += 1
        stats["self_s"] += duration - child
        return stats

    # -- requests -----------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self.request_tree = [0, 0]

    def end_request(self) -> None:
        nodes, objects = self.request_tree
        if objects:
            self.tree_ratios.append(nodes / objects)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,request,parent,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.starts)):
                out.write(
                    f"{i},{self.request_ids[i]},{self.parents[i]},{names[self.name_col[i]]},"
                    f"{self.starts[i]:.9f},{self.ends[i]:.9f}\n"
                )
