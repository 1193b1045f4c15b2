#!/usr/bin/env python3
"""Benchmark of the lambdatrees tree stack, lattice stack and CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cayley-lengths, isometry-zoo, lattice-trace, cli-tasks (see
README.md beside this file).  A workload is a fixed batch of operations
made from the seed; the run repeats the whole batch (a round) while the
next round still fits in S seconds, and always runs at least one.  Every
answer is checked after its round, outside the timed region.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics: ``setup_s`` (median of several fresh set-up
processes), ``wall_s`` (median round time), ``op_ms_p50``/``op_ms_p90``
(latency of one operation) and ``peak_rss_mb``.  With ``--trace 1`` one
plain round is followed by traced rounds, and the per-layer metrics are
printed instead.  Both also write a result file, and the traced run a
trace file, under ``perfbench/out/``.
"""

import time

PROCESS_STARTED_AT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

from common import OUT_DIR, percentile, use_repo_source  # noqa: E402

WORKLOADS = {
    "cayley-lengths": "workloads.cayley",
    "isometry-zoo": "workloads.zoo",
    "lattice-trace": "workloads.lattice",
    "cli-tasks": "workloads.cli_tasks",
}
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
MIN_OPS = 100  # so that at least 10 latencies lie beyond the 90th percentile

# per-layer count metrics: the traced functions whose calls they add up
CALL_COUNTS = {
    "ordered.elements_built": ["ordered.LambdaElement.__init__"],
    "ordered.arith_calls": [
        f"ordered.LambdaElement.{op}"
        for op in ("__add__", "__sub__", "__neg__", "__mul__",
                   "__lt__", "__le__", "__gt__", "__ge__", "__eq__")
    ],
    "tree.distance_calls": ["tree.LambdaTree.distance"],
    "tree.path_walk_calls": ["tree.LambdaTree.path_walk"],
    "tree.trees_built": ["tree.LambdaTree.__init__"],
    "isometry.classify_calls": ["isometry.TreeIsometry.classify"],
    "isometry.compose_calls": ["isometry.TreeIsometry.compose"],
    "isometry.level_set_calls": ["isometry.TreeIsometry.level_set"],
    "isometry.apply_calls": ["isometry.TreeIsometry.apply"],
    "valuation.valuation_calls": ["valuation.ValuedField.valuation"],
    "valuation.canonical_mod_calls": ["valuation.ValuedField.canonical_mod"],
    "sl2.canonical_vertex_calls": ["sl2.canonical_vertex"],
    "sl2.act_calls": ["sl2.act"],
    "sl2.neighbors_calls": ["sl2.neighbors"],
}
SELF_TIME_LAYERS = ["ordered", "tree", "isometry", "lengths", "words", "valuation", "sl2",
                    "graph_of_groups"]
CLI_PHASES = ["interpreter_ms", "import_ms", "parse_ms", "compute_ms", "emit_ms"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up once, print the seconds since process start, exit")
    return parser.parse_args(argv)


def load_workload(name):
    use_repo_source()
    return importlib.import_module(WORKLOADS[name])


# -- set-up --------------------------------------------------------------------


def probe_setup(args) -> None:
    load_workload(args.workload).setup(args.seed, args.size)
    print(json.dumps({"setup_s": time.perf_counter() - PROCESS_STARTED_AT}))


def measure_setup(args) -> float:
    """Median set-up time of fresh processes: imports, inputs, construction."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return median(times)


# -- rounds --------------------------------------------------------------------


class Round:
    """One timed pass over the batch; ``settle`` then checks its answers.

    Answers are dropped once checked, so memory does not grow with the
    number of rounds; only their largest ``rss_kb`` (set by workloads that
    run child processes) is kept.
    """

    def __init__(self, ops):
        clock = time.perf_counter
        self.latencies = []
        self.errors = []
        self.answers = []
        started = clock()
        for op in ops:
            t0 = clock()
            try:
                answer = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                answer = None
                self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            self.latencies.append(clock() - t0)
            self.answers.append(answer)
        self.wall = clock() - started

    def settle(self, ops) -> "Round":
        self.wrong = []
        for op, answer in zip(ops, self.answers):
            if answer is None:
                continue
            try:
                op.check(answer)
            except Exception as exc:  # a malformed answer is a wrong answer
                self.wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
        self.child_rss_kb = max((getattr(a, "rss_kb", 0) for a in self.answers if a), default=0)
        self.answers = None
        return self


def run_rounds(ops, seconds, min_ops=MIN_OPS, untraced=contextlib.nullcontext):
    """Whole rounds while the next one (at the median pace) still fits, and
    until ``min_ops`` operations have run.  Checks run inside
    ``untraced()``, so a tracer does not count them."""
    rounds = []
    started = time.perf_counter()
    while True:
        current = Round(ops)
        with untraced():
            rounds.append(current.settle(ops))
        pace = median([r.wall for r in rounds])
        fits = time.perf_counter() - started + pace <= seconds
        if not fits and len(rounds) * len(ops) >= min_ops:
            return rounds


# -- metrics -------------------------------------------------------------------


def end_to_end(module, rounds, setup_s):
    latencies = [t for r in rounds for t in r.latencies]
    if getattr(module, "CHILD_PROCESSES", False):
        peak_kb = max(r.child_rss_kb for r in rounds)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": median([r.wall for r in rounds]), "unit": "s"},
        "op_ms_p50": {"value": percentile(latencies, 50) * 1e3, "unit": "ms"},
        "op_ms_p90": {"value": percentile(latencies, 90) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(doc, n_rounds, overhead_s):
    funcs = doc.get("functions", {})
    edges = {(a, b): n for a, b, n in doc.get("edges", [])}
    outcomes = doc.get("outcomes", {})
    out = {}
    for metric, names in CALL_COUNTS.items():
        calls = sum(funcs.get(name, {}).get("calls", 0) for name in names)
        out[metric] = {"value": calls / n_rounds, "unit": "count"}
    for layer in SELF_TIME_LAYERS:
        spent = sum(rec["self_s"] for name, rec in funcs.items()
                    if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = {"value": spent / n_rounds, "unit": "s"}
    out["lengths.classes_evaluated"] = {
        "value": outcomes.get("lengths.length_function", 0) / n_rounds, "unit": "count"}
    searches = edges.get(("sl2.find_fixed_vertex", "sl2.act"), 0)
    hits = outcomes.get("sl2.find_fixed_vertex", 0)
    out["sl2.fixed_hits_per_act"] = {
        "value": hits / searches if searches else 0.0, "unit": "ratio"}
    phases = doc.get("phases", [])
    for phase in CLI_PHASES:
        value = median([p[phase] for p in phases]) if phases else 0.0
        out[f"cli.{phase}"] = {"value": value, "unit": "ms"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


# -- main ----------------------------------------------------------------------


def run(args):
    module = load_workload(args.workload)
    ops = module.setup(args.seed, args.size)
    trace_doc = None
    if not args.trace:
        setup_s = measure_setup(args)
        rounds = run_rounds(ops, args.seconds)
        metrics = end_to_end(module, rounds, setup_s)
    else:
        from tracer import Tracer

        plain = Round(ops).settle(ops)
        if getattr(module, "CHILD_PROCESSES", False):
            trace_doc = {}
            traced_ops = module.setup(args.seed, args.size, trace_into=trace_doc)
            rounds = run_rounds(traced_ops, args.seconds - plain.wall, min_ops=1)
        else:
            tracer = Tracer().install()
            try:
                rounds = run_rounds(ops, args.seconds - plain.wall, 1, tracer.paused)
            finally:
                tracer.uninstall()
            trace_doc = tracer.to_json()
        overhead = median([r.wall for r in rounds]) - plain.wall
        metrics = per_layer(trace_doc, len(rounds), overhead)
        rounds = [plain] + rounds
    wrong = [msg for r in rounds for msg in r.wrong]
    errors = [msg for r in rounds for msg in r.errors]
    result = {
        "correct": not wrong,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": len(errors),
        "metrics": metrics,
    }
    write_outputs(args, result, rounds, ops, wrong, errors, trace_doc)
    return result


def write_outputs(args, result, rounds, ops, wrong, errors, trace_doc):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    detail = dict(result)
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds],
        "op_median_ms": {op.label: median([r.latencies[i] for r in rounds]) * 1e3
                         for i, op in enumerate(ops)},
        "wrong": wrong[:50], "errors": errors[:50],
    })
    with open(os.path.join(OUT_DIR, f"result-{stem}-trace{args.trace}.json"), "w") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    if trace_doc is not None:
        doc = dict(trace_doc, traced_rounds=len(rounds) - 1)
        with open(os.path.join(OUT_DIR, f"trace-{stem}.json"), "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup:
            probe_setup(args)
            return 0
        result = run(args)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
