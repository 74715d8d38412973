"""condalg benchmark: time to verdict per command on four input families.

    python3 bench/run.py --workload chains --seed 1 --seconds 30 --trace 0

Run from the repository root, or from anywhere: the program is imported
from the ``src`` directory next to this one, and the run stops with an
error when it is missing.  Workloads (see gen.py):

* ``chains``: long single-connective ``&&``/``||`` chains (50-160
  connectives): ``se`` and ``bf`` are quadratic in the condition nesting;
* ``nested``: condition-nested shared terms, evaluation trees of 1k-5k
  nodes over a few hundred objects: the tree transforms, tree ``==`` and
  rendering walk the tree, not the DAG;
* ``static``: CNF/DNF-like terms over 4-7 atoms and short nested chains:
  the only workload with ``sse``, ``sbf`` and truth tables;
* ``axioms``: ``check_axioms`` on small seeded pools for every sound
  (system, congruence) pairing: thousands of decisions on ~20-node terms,
  where per-call constant costs dominate.

One client sends the next request when the previous one has returned
(closed loop, one process, no threads).  A request is a CLI command run
in-process through ``condalg.cli.main(argv)`` with output captured, or,
for ``axioms``, one ``condalg.check_axioms`` call.  The whole request list
is replayed until the requests have run for ``--seconds``.  Every answer
is checked against what the benchmark knows independently (classical.py);
a wrong answer fails the run.  A pass over the list takes about a second,
so a 30-second run replays every request 35 to 55 times, spread over the
whole run.

``--trace 0`` prints the end-to-end metrics:

* ``request_p50_ms``/``request_tail_ms`` over all requests, and
  ``<command>_p50_ms``/``<command>_tail_ms`` per command; a request's
  latency is the upper quartile of its replays (see ``typical``), the
  tail is the highest percentile with at least ten requests beyond it
  (printed with the count);
* ``requests_per_s``: requests over the sum of their latencies, and
  ``axiom_instances_per_s`` likewise for ``axioms``;
* ``failed_ratio``: requests raising, refused by the budget, wrong or
  disagreeing between routes, over requests attempted;
* ``setup_s``: median wall time of fresh interpreters running
  ``condalg witnesses``, the cold start every CLI call pays;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs each unit untraced and then traced, checks that both
print the same, and prints per-layer metrics from the spans (spans.py)
as ``<module>.<function>.<stat>``.  Either way every metric that applies
is printed as ``name value unit``; a result file with the seed, input
digest, Python version and core count (and, for traced runs, the spans)
is written to ``bench/out/``; and the last line is the JSON summary of
the metrics BENCHMARK.json declares for the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import classical
import gen
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COMMANDS = ("equiv", "normalize", "tree", "table", "desugar")
SETUP_RUNS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from condalg.cli import main; "
    "sys.exit(main(['witnesses']))"
)


def load_condalg():
    """Import condalg from this checkout's sources, or stop."""
    if not (SRC / "condalg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no condalg sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import condalg
    import condalg.cli

    if Path(condalg.__file__).resolve().parent != SRC / "condalg":
        raise SystemExit(f"bench: imported condalg from {condalg.__file__}, not {SRC}")
    return condalg


# ---------------------------------------------------------------------------
# Running and checking requests
# ---------------------------------------------------------------------------


class Outcome:
    __slots__ = ("status", "output", "seconds")

    def __init__(self, status, output, seconds):
        self.status = status  # ok, budget, usage, unexpected, wrong
        self.output = output
        self.seconds = seconds


class Runner:
    def __init__(self, condalg, workload):
        self.condalg = condalg
        self.axioms = workload == "axioms"
        self.pools: dict[int, tuple] = {}

    def _axiom_args(self, request):
        key = id(request)
        if key not in self.pools:
            c = self.condalg
            system, kind, *pool = request.argv
            if kind.startswith("static:"):
                kind_obj = c.static(c.Sigma.of(*kind[len("static:"):]))
            else:
                kind_obj = {"free": c.FREE, "rp": c.RP, "cr": c.CR, "mem": c.MEM}[kind]
            self.pools[key] = (system, [c.parse_term(t) for t in pool], kind_obj)
        return self.pools[key]

    def execute(self, request, clock=perf_counter) -> Outcome:
        """Run one request; classify everything that is not an answer."""
        c = self.condalg
        if self.axioms:
            args = self._axiom_args(request)
            start = clock()
            try:
                reports = c.congruence.check_axioms(*args)
            except c.BudgetError:
                return Outcome("budget", None, clock() - start)
            except Exception as exc:  # counted as unexpected, never masked
                return Outcome("unexpected", repr(exc), clock() - start)
            seconds = clock() - start
            failing = sum(not r.holds for r in reports)
            return Outcome("ok", f"{len(reports)} {failing}", seconds)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = clock()
            try:
                code = c.cli.main(list(request.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # counted as unexpected, never masked
                return Outcome("unexpected", repr(exc), clock() - start)
            seconds = clock() - start
        status = {0: "ok", 2: "usage", 3: "budget"}.get(code, "unexpected")
        if code == 1 and request.command == "equiv":
            status = "ok"
        return Outcome(status, (code, out.getvalue()), seconds)


def check(request, outcome) -> str | None:
    """Why the output is wrong, or None."""
    expect = request.expect
    if request.command == "axioms":
        count, failing = map(int, outcome.output.split())
        if failing:
            return f"{failing} axiom instances do not hold"
        if count != expect["instances"]:
            return f"{count} instances, expected {expect['instances']}"
        return None
    code, text = outcome.output
    text = text.rstrip("\n")
    if request.command == "equiv":
        verdict = {(0, "equivalent"): True, (1, "not equivalent"): False}.get((code, text))
        if verdict is None:
            return f"unreadable verdict {text!r} with exit {code}"
        if expect["verdict"] is not None and verdict != expect["verdict"]:
            return f"verdict {verdict}, expected {expect['verdict']}"
        return None
    if request.command == "desugar":
        return None if text == expect["text"] else "desugared term differs"
    rows = expect["rows"]
    try:
        if request.command == "normalize":
            ok = classical.term_text_value(text, rows) == expect["value"]
            return None if ok else "normal form is not classically equal to the input"
        if request.command == "tree":
            ok = classical.tree_text_value(text, rows) == expect["value"]
            return None if ok else "tree does not evaluate to the term's classical value"
        names, table = classical.parse_table_text(text)
        wanted = list(zip(rows.assignments(), expect["table"]))
        ok = tuple(names) == rows.sigma and table == wanted
        return None if ok else "truth table differs"
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"


class Gate:
    """Correctness gate: known answers on first sight, identical output on
    every replay, and route agreement between equiv and normalize."""

    def __init__(self):
        self.seen: dict[tuple[int, int], str] = {}
        self.errors: list[str] = []

    def judge(self, unit_index, unit, outcomes) -> None:
        for j, (request, outcome) in enumerate(zip(unit.requests, outcomes)):
            if outcome.status != "ok":
                continue
            key = (unit_index, j)
            digest = hashlib.sha256(repr(outcome.output).encode()).hexdigest()
            problem = None
            if key not in self.seen:
                problem = check(request, outcome)
                self.seen[key] = digest
            elif self.seen[key] != digest:
                problem = "output differs from an earlier run of the same request"
            if problem:
                self.wrong(outcome, f"unit {unit_index} {request.command}: {problem}")
        if unit.agree:
            e, l, r = (outcomes[k] for k in unit.agree)
            if all(o.status == "ok" for o in (e, l, r)):
                if (e.output[0] == 0) != (l.output[1] == r.output[1]):
                    self.wrong(e, f"unit {unit_index}: equiv and normalize disagree")

    def wrong(self, outcome, message):
        outcome.status = "wrong"
        self.errors.append(message)
        print(f"bench: WRONG: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Report:
    def __init__(self):
        self.metrics: dict[str, dict] = {}

    def add(self, name, value, unit, **note):
        self.metrics[name] = {"value": value, "unit": unit, **note}

    def latency(self, prefix, seconds):
        if not seconds:
            return
        ms = [s * 1000 for s in seconds]
        value, pct = tail(ms)
        self.add(f"{prefix}_p50_ms", statistics.median(ms), "ms", samples=len(ms))
        self.add(f"{prefix}_tail_ms", value, "ms", percentile=round(pct, 2), samples=len(ms))


def typical(samples):
    """A request's latency: the upper quartile of its replays.

    On a shared machine whose cores run at about half speed while a
    neighbour is busy, replays fall into a fast and a slow group whose
    shares change from minute to minute.  The minimum then depends on
    whether a fast stretch came by at all, and the median on which group
    is larger; the upper quartile stays in the slow group unless three
    replays in four ran fast, and one slow outlier barely moves it."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def measure_setup(runs: int) -> list[float]:
    """Wall times of fresh interpreters running ``condalg witnesses``."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.endswith("all witnesses verified\n"):
            raise SystemExit(f"bench: condalg witnesses failed: {proc.stderr.strip()}")
    return times


def machine_probe() -> float:
    """Milliseconds for a fixed pure-Python loop (median of five): shows
    how fast the machine ran, to read the other numbers against."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for k in range(200_000):
            total += k * k
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def replay(units, runner, gate, seconds, tracer):
    """Run whole units, in order and again from the start, until the
    requests have run for ``seconds`` and every unit has run once.  With a
    tracer, each unit runs untraced and then traced, and both runs must
    print the same.  Returns per-request latencies, status counts, and
    (untraced, traced) totals of the traced units."""
    latencies: dict[tuple[int, int], list[float]] = {}
    counts = dict.fromkeys(("ok", "budget", "usage", "unexpected", "wrong"), 0)
    totals = [0.0, 0.0]
    busy = 0.0
    i = 0
    while busy < seconds or i < len(units):
        index = i % len(units)
        unit = units[index]
        start = perf_counter()
        outcomes = [runner.execute(r) for r in unit.requests]
        if tracer is not None:
            tracer.install()
            try:
                traced = []
                for j, r in enumerate(unit.requests):
                    tracer.begin_request(i * len(unit.requests) + j)
                    traced.append(runner.execute(r, clock=tracer.now))
                    tracer.end_request()
            finally:
                tracer.uninstall()
            totals[0] += sum(o.seconds for o in outcomes)
            totals[1] += sum(o.seconds for o in traced)
            for r, a, b in zip(unit.requests, outcomes, traced):
                if (a.status, a.output) != (b.status, b.output):
                    gate.wrong(a, f"unit {index} {r.command}: traced output differs")
        busy += perf_counter() - start
        gate.judge(index, unit, outcomes)
        for j, o in enumerate(outcomes):
            counts[o.status] += 1
            if o.status == "ok":
                latencies.setdefault((index, j), []).append(o.seconds)
        i += 1
    return latencies, counts, totals, i


def run(workload, seed, seconds, traced):
    condalg = load_condalg()
    units = gen.generate(workload, seed)
    gate = Gate()
    tracer = Tracer(condalg.NodeBudgetError) if traced else None
    # Set-up runs and the machine probe sit at both ends of the run, so
    # that their medians span it.
    probes = [machine_probe()]
    setup = [] if traced else measure_setup(SETUP_RUNS // 2 + 1)
    latencies, counts, totals, units_run = replay(units, Runner(condalg, workload), gate, seconds, tracer)
    probes.append(machine_probe())
    if not traced:
        setup += measure_setup(SETUP_RUNS // 2)

    report = Report()
    latency = {key: typical(samples) for key, samples in latencies.items()}
    service = sum(latency.values())
    if traced:
        per_layer(report, tracer, *totals)
    else:
        by_command: dict[str, list[float]] = {}
        for (index, j), seconds_ in sorted(latency.items()):
            by_command.setdefault(units[index].requests[j].command, []).append(seconds_)
        report.latency("request", list(latency.values()))
        for command in COMMANDS:
            report.latency(command, by_command.get(command))
        report.add("requests_per_s", len(latency) / service, "1/s", requests=len(latency), replays=counts["ok"])
        if workload == "axioms":
            instances = sum(units[index].requests[j].expect["instances"] for index, j in latency)
            report.add("axiom_instances_per_s", instances / service, "1/s", instances=instances)
        report.add("setup_s", statistics.median(setup), "s", runs=len(setup))
        report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    attempted = sum(counts.values())
    failed = attempted - counts["ok"]
    report.add("failed_ratio", failed / attempted, "ratio", failed=failed, attempted=attempted)
    for status in ("budget", "usage", "unexpected", "wrong"):
        report.add(f"failures.{status}", counts[status], "count")

    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "input_digest": gen.digest(units),
        "units": len(units),
        "passes": round(units_run / len(units), 2),
        "machine_probe_ms": [round(p, 3) for p in probes],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "correct": not gate.errors,
        "errors": gate.errors[:20],
    }
    return meta, report, attempted, failed, tracer


# Per-layer metrics, by span name: which counters each layer reports.
LAYERS = {
    "evaltrees.se": ("self_s", "calls", "out_nodes", "out_objects"),
    "evaltrees.render_tree": ("self_s", "chars"),
    "normalform.bf": ("self_s", "calls", "out_nodes", "out_objects"),
    "normalform.rpf": ("self_s", "calls", "out_nodes", "out_objects"),
    "normalform.cf": ("self_s", "calls", "out_nodes", "out_objects"),
    "normalform.mf": ("self_s", "calls", "out_nodes", "out_objects"),
    "normalform.sbf": ("self_s", "calls", "out_nodes"),
    "treetransform.rp": ("self_s", "calls", "out_nodes", "out_objects", "unchanged_ratio"),
    "treetransform.cr": ("self_s", "calls", "out_nodes", "out_objects", "unchanged_ratio"),
    "treetransform.mem": ("self_s", "calls", "out_nodes", "out_objects", "unchanged_ratio"),
    "treetransform.sse": ("self_s", "calls", "out_nodes", "out_objects"),
    "congruence.compare": ("self_s", "calls"),
    "congruence.truth_table": ("self_s", "rows"),
    "congruence.render_truth_table": ("self_s",),
    "congruence.check_axioms": ("self_s", "instances"),
    "terms.parse_term": ("self_s", "calls", "chars"),
    "terms.render_term": ("self_s", "chars"),
    "shortcircuit.parse_sc": ("self_s",),
    "shortcircuit.desugar": ("self_s",),
    "cli.main": ("self_s",),
}
AXIOM_SYSTEMS = ("CP", "CPrp", "CPcr", "CPmem", "CPs", "CPst")
UNITS = {"self_s": "s", "unchanged_ratio": "ratio"}


def per_layer(report, tracer, untraced_total, traced_total):
    stats = tracer.stats
    for system in AXIOM_SYSTEMS:
        own = stats.get(f"congruence.check_axioms.{system}", {})
        report.add(f"congruence.check_axioms.{system}.self_s", own.get("self_s", 0.0), "s")
        total = stats["congruence.check_axioms"]
        for key, value in own.items():
            total[key] += value
    for layer, fields in LAYERS.items():
        own = stats.get(layer, {})
        for field in fields:
            if field == "unchanged_ratio":
                value = own.get("unchanged", 0) / own["calls"] if own.get("calls") else 0.0
            else:
                value = own.get(field, 0)
            report.add(f"{layer}.{field}", value, UNITS.get(field, "count"))
        if own.get("self_s") and traced_total:
            report.add(f"{layer}.self_share", own["self_s"] / traced_total, "ratio")
    report.add("normalform.budget_errors", tracer.budget_errors, "count")
    ratios = tracer.tree_ratios
    report.add(
        "sharing.tree_share_ge2x",
        sum(r >= 2 for r in ratios) / len(ratios) if ratios else 0.0,
        "ratio",
        trees=len(ratios),
    )
    report.add("sharing.tree_median_ratio", statistics.median(ratios) if ratios else 0.0, "ratio")
    report.add("trace.overhead_ratio", traced_total / untraced_total, "ratio",
               traced_s=traced_total, untraced_s=untraced_total)
    report.add("trace.spans", len(tracer.starts), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta, report, attempted, failed, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, entry in report.metrics.items():
        notes = " ".join(f"{k}={v}" for k, v in entry.items() if k not in ("value", "unit"))
        print(f"{name} {entry['value']:.6g} {entry['unit']} {notes}".rstrip())
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        meta["spans_file"] = f"{stem}-spans.csv"
        tracer.write_spans(OUT / meta["spans_file"])
    (OUT / f"{stem}.json").write_text(json.dumps({**meta, "metrics": report.metrics}, indent=1))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    summary = {
        "correct": meta["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {k: report.metrics[m["name"]][k] for k in ("value", "unit")} for m in declared},
    }
    print(json.dumps(summary))
    return 0 if meta["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
