"""Self-checks of the benchmark.

    python3 -m pytest bench/test_bench.py

Smoke runs use the three smallest units of each workload.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import classical
import gen
import run

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMANDS_BY_WORKLOAD = {
    "chains": ("equiv", "normalize", "tree", "desugar"),
    "nested": ("equiv", "normalize", "tree"),
    "static": ("equiv", "normalize", "table"),
    "axioms": (),
}
END_TO_END = {
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "requests_per_s": "1/s",
    "failed_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"evaltrees.se.{f}": "count" for f in ("calls", "out_nodes", "out_objects")},
    "evaltrees.se.self_s": "s",
    "evaltrees.render_tree.self_s": "s",
    "evaltrees.render_tree.chars": "count",
    **{f"normalform.{n}.self_s": "s" for n in ("bf", "rpf", "cf", "mf", "sbf")},
    **{f"normalform.{n}.{f}": "count" for n in ("bf", "rpf", "cf", "mf") for f in ("calls", "out_nodes", "out_objects")},
    "normalform.sbf.calls": "count",
    "normalform.sbf.out_nodes": "count",
    **{f"treetransform.{n}.self_s": "s" for n in ("rp", "cr", "mem", "sse")},
    **{f"treetransform.{n}.{f}": "count" for n in ("rp", "cr", "mem", "sse") for f in ("calls", "out_nodes", "out_objects")},
    **{f"treetransform.{n}.unchanged_ratio": "ratio" for n in ("rp", "cr", "mem")},
    "congruence.compare.self_s": "s",
    "congruence.compare.calls": "count",
    "congruence.truth_table.self_s": "s",
    "congruence.truth_table.rows": "count",
    "congruence.render_truth_table.self_s": "s",
    "congruence.check_axioms.self_s": "s",
    "congruence.check_axioms.instances": "count",
    **{f"congruence.check_axioms.{s}.self_s": "s" for s in ("CP", "CPrp", "CPcr", "CPmem", "CPs", "CPst")},
    "terms.parse_term.self_s": "s",
    "terms.parse_term.calls": "count",
    "terms.parse_term.chars": "count",
    "terms.render_term.self_s": "s",
    "terms.render_term.chars": "count",
    "shortcircuit.parse_sc.self_s": "s",
    "shortcircuit.desugar.self_s": "s",
    "normalform.budget_errors": "count",
    **{f"failures.{k}": "count" for k in ("budget", "usage", "unexpected", "wrong")},
    "sharing.tree_share_ge2x": "ratio",
    "sharing.tree_median_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def test_same_seed_same_digest_and_different_seeds_differ():
    for workload in gen.WORKLOADS:
        first = gen.digest(gen.generate(workload, 11))
        assert first == gen.digest(gen.generate(workload, 11))
        assert first != gen.digest(gen.generate(workload, 12))


def test_classical_evaluator_on_known_terms():
    rows = classical.Rows(("a", "b"))
    a, b = rows.masks["a"], rows.masks["b"]
    assert rows.column(a) == [True, True, False, False]
    assert classical.term_text_value("a <| b |> F", rows) == a & b
    assert classical.term_text_value("T <| (F <| a |> T) |> b", rows) == (~a & rows.full) | b
    assert classical.tree_text_value("(T <a> (T <b> F))", rows) == a | b
    expr = ("and", ("not", ("lit", "a")), ("lit", "a"))
    assert classical.render_expr(expr) == "!a && a"
    assert classical.render_term(classical.desugar(expr)) == "a <| (F <| a |> T) |> F"
    with pytest.raises(ValueError):
        classical.term_text_value("(a) <| b |> F", rows)


@pytest.fixture(scope="module")
def smoke():
    """For each workload and mode: (printed metrics, summary line, exit code)."""
    generate = gen.generate
    results = {}
    try:
        gen.generate = lambda workload, seed: generate(workload, seed)[:3]
        for workload in gen.WORKLOADS:
            for trace in ("0", "1"):
                out = io.StringIO()
                with redirect_stdout(out):
                    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace])
                lines = out.getvalue().splitlines()
                printed = {f[0]: (float(f[1]), f[2]) for f in (line.split() for line in lines[:-1])}
                results[workload, trace] = printed, json.loads(lines[-1]), code
    finally:
        gen.generate = generate
    return results


def test_smoke_runs_pass_the_gate(smoke):
    for (workload, trace), (printed, summary, code) in smoke.items():
        assert code == 0, (workload, trace)
        assert summary["correct"] is True
        assert summary["failed"] == 0 and summary["attempted"] >= 3


def test_layer_self_times_add_up_to_the_traced_time(smoke):
    for (workload, trace), (printed, _, _) in smoke.items():
        if trace == "1":
            shares = sum(value for name, (value, _) in printed.items() if name.endswith(".self_share"))
            # Shares are printed to 6 digits, and the runner's few microseconds
            # around cli.main lie outside every span: on the smallest
            # requests (about 2 ms) they come to about 0.1% of the time.
            assert shares == pytest.approx(1.0, abs=3e-3), workload


def test_every_metric_is_printed_with_its_unit(smoke):
    for (workload, trace), (printed, summary, _) in smoke.items():
        if trace == "0":
            expected = dict(END_TO_END)
            for command in COMMANDS_BY_WORKLOAD[workload]:
                expected[f"{command}_p50_ms"] = expected[f"{command}_tail_ms"] = "ms"
            if workload == "axioms":
                expected["axiom_instances_per_s"] = "1/s"
        else:
            expected = PER_LAYER
        for name, unit in expected.items():
            assert printed[name][1] == unit, (workload, trace, name)
        declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert list(summary["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
