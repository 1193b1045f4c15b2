"""cli-tasks: one task file per CLI subcommand, each in a fresh process.

Every round runs the same 19 task files, covering all 15 subcommands, one
at a time (a closed loop with one client): each is a new
``python -m lambdatrees`` process started with the benchmark's own
interpreter and the checkout's ``src/``.  Sizes are fixed (tree sizes,
primes, radii, class lengths), so every seed costs the same; the seed
chooses shapes, lengths, centres, conjugators, exponents and words.  The
two hyperbolic ``sl2-length`` tasks, the heaviest after
``length-function``, hold the 90th percentile between them.  Every expected
answer is worked out here, apart from the program: path sums, periods,
padded edge lengths, components of a union-find, lattice labels and ball
sizes 1 + (p+1)(p^r - 1)/(p - 1), hand-worked presentations of
amalgams and HNN extensions, the Schreier rank n(r-1)+1, cyclic word
lengths, and log-trace ratios computed in floating point.

In a traced round each task runs under ``cli_child.py`` instead, which
records the child's interpreter start, import, parse, compute and emit
times and the spans of every library layer.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import tracer
from common import BENCH_DIR, OUT_DIR, REPO_ROOT, SRC_DIR, Op, expect

NAME = "cli-tasks"
CHILD_PROCESSES = True
TASK_TIMEOUT_S = 60
DOT = "{dot}"  # stands for the task's DOT output path in an argv tail


@dataclass
class CliResult:
    code: int
    doc: Optional[dict]
    dot: Optional[str]
    rss_kb: int


def _lengths_json(c):
    return [str(x) for x in c]


def _random_tree(rng, rank, n):
    vertices = [f"v{i:02d}" for i in range(n)]
    edges = []
    for i in range(1, n):
        if rank == 1:
            c = (rng.randint(1, 9),)
        else:
            c = (rng.randint(0, 2), rng.randint(1, 5))
        edges.append((vertices[rng.randrange(i)], vertices[i], c))
    return vertices, edges


def _tree_json(rank, vertices, edges, dyadic=False):
    return {
        "group": {"rank": rank, "dyadic": dyadic},
        "vertices": vertices,
        "edges": [{"a": a, "b": b, "len": _lengths_json(c)} for a, b, c in edges],
    }


def _distances(vertices, edges, src):
    adjacency = {v: [] for v in vertices}
    for a, b, c in edges:
        adjacency[a].append((b, c))
        adjacency[b].append((a, c))
    dist = {src: tuple(0 for _ in edges[0][2])}
    stack = [src]
    while stack:
        u = stack.pop()
        for w, c in adjacency[u]:
            if w not in dist:
                dist[w] = tuple(x + y for x, y in zip(dist[u], c))
                stack.append(w)
    return dist


# -- tasks: each returns (argv tail, payload document, check) -------------------


def tree_distance(rng):
    rank = rng.choice([1, 2])
    vertices, edges = _random_tree(rng, rank, 9)
    u = rng.choice(vertices)
    k = rng.randrange(len(edges))
    a, b, length = edges[k]
    # a point one unit (in the last coordinate) from the edge's first end
    offset = (0,) * (rank - 1) + (1,)
    from_a = _distances(vertices, edges, u)
    via_a = tuple(x + y for x, y in zip(from_a[a], offset))
    rest = tuple(x - y for x, y in zip(length, offset))
    via_b = tuple(x + y for x, y in zip(from_a[b], rest))
    task = {
        "command": "tree-distance",
        "payload": {"tree": _tree_json(rank, vertices, edges), "p": u,
                    "q": {"edge": f"e{k}", "offset": _lengths_json(offset)}},
    }
    want = {"distance": _lengths_json(min(via_a, via_b))}
    # the offset must lie strictly inside the edge for the point to be interior
    if not offset < length:
        task["payload"]["q"] = b
        want = {"distance": _lengths_json(from_a[b])}

    def check(r):
        expect(r.doc == want, f"tree-distance gave {r.doc}, want {want}")

    return [], task, check


def classify_isometry(rng):
    shift, span = 2, 6
    total = span + shift
    pattern = [rng.randint(1, 9) for _ in range(shift)]
    vertices = [f"v{i:02d}" for i in range(total + 1)]
    edges = [(vertices[i], vertices[i + 1], (pattern[i % shift],)) for i in range(total)]
    task = {
        "command": "classify-isometry",
        "payload": {
            "tree": _tree_json(1, vertices, edges),
            "isometry": {"map": {vertices[i]: vertices[i + shift] for i in range(span + 1)}},
        },
    }
    period = [str(sum(pattern))]

    def check(r):
        expect(r.doc["kind"] == "hyperbolic", f"translation classified {r.doc['kind']}")
        expect(r.doc["length"] == period, f"length {r.doc['length']}, period {period}")

    return [], task, check


def check_axioms_tree(rng):
    rank = rng.choice([1, 2])
    vertices, edges = _random_tree(rng, rank, 9)
    samples = 8
    task = {"tree": _tree_json(rank, vertices, edges), "samples": samples}
    want = {"valid": True, "axiom": None, "witness": None, "samples": samples}

    def check(r):
        expect(r.doc == want, f"check-axioms gave {r.doc}, want {want}")

    return ["check-axioms", "--seed", str(rng.randrange(1000))], task, check


def check_axioms_cycle(rng):
    vertices, edges = _random_tree(rng, 1, 9)
    adjacent = {frozenset((a, b)) for a, b, _ in edges}
    while True:
        u, v = rng.sample(vertices, 2)
        if frozenset((u, v)) not in adjacent:
            break
    task = {"command": "check-axioms",
            "payload": {"tree": _tree_json(1, vertices, edges + [(u, v, (1,))])}}

    def check(r):
        expect(r.doc["valid"] is False and r.doc["axiom"] == "b",
               f"cycle graph judged {r.doc}")
        expect("cycle" in r.doc["witness"], f"witness {r.doc['witness']!r} names no cycle")

    return [], task, check


def base_change(rng):
    vertices, edges = _random_tree(rng, 1, 8)
    dyadic = rng.random() < 0.5
    task = {"command": "base-change",
            "payload": {"tree": _tree_json(1, vertices, edges),
                        "target": {"rank": 2, "dyadic": dyadic}}}
    want = {"tree": _tree_json(2, vertices, [(a, b, c + (0,)) for a, b, c in edges], dyadic)}

    def check(r):
        expect(r.doc == want, f"base-change gave {r.doc}, want {want}")

    return [], task, check


def quotient(rng):
    n = 9
    vertices = [f"x{i:02d}" for i in range(n)]
    edges = []
    for i in range(1, n):
        top = 0 if rng.random() < 0.5 else rng.randint(1, 3)
        edges.append((vertices[rng.randrange(i)], vertices[i], (top, rng.randint(1, 5))))
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b, c in edges:
        if c[0] == 0:
            ra, rb = find(a), find(b)
            root[max(ra, rb)] = min(ra, rb)
    vertex_map = {v: find(v) for v in vertices}
    roots = sorted(set(vertex_map.values()))
    kept = sum(1 for _, _, c in edges if c[0] != 0)
    task = {"command": "quotient",
            "payload": {"tree": _tree_json(2, vertices, edges), "depth": 1}}

    def check(r):
        expect(r.doc["vertex_map"] == vertex_map, "quotient vertex map differs from components")
        expect(r.doc["tree"]["vertices"] == roots, f"quotient vertices {r.doc['tree']['vertices']}")
        expect(len(r.doc["tree"]["edges"]) == kept, "quotient keeps the wrong edges")
        expect(sorted(r.doc["fibers"]) == roots, "one fiber per quotient vertex expected")

    return [], task, check


def sl2_act(rng):
    p = rng.choice([2, 3])
    k = rng.randint(1, 3)
    task = {"command": "sl2-act",
            "payload": {"field": {"field": "Q", "p": p},
                        "matrix": [str(p ** k), "0", "0", f"1/{p ** k}"]}}
    # diag(p^k, p^-k) spans the class of diag(p^2k, 1): vertex L(2k; 0)
    label = f"L({2 * k}; 0)"

    def check(r):
        expect(r.doc["label"] == label, f"sl2-act gave {r.doc['label']}, want {label}")

    return [], task, check


def sl2_ball(rng):
    p, radius = 3, 3
    size = 1 + (p + 1) * (p ** radius - 1) // (p - 1)
    k = rng.randint(0, 3)
    center = [str(p ** k), str(rng.randrange(p ** k)), "0", "1"]
    task = {"command": "sl2-ball",
            "payload": {"field": {"field": "Q", "p": p}, "radius": radius, "center": center}}

    def check(r):
        expect(len(r.doc["vertices"]) == size,
               f"ball p={p} r={radius}: {len(r.doc['vertices'])} vertices, want {size}")
        expect(len(r.doc["edges"]) == size - 1, "a ball is a tree: edges = vertices - 1")
        expect(r.dot is not None and r.dot.count("[label=") == size, "DOT vertex count")
        expect(r.dot.count(" -- ") == size - 1, "DOT edge count")

    return ["--dot", DOT], task, check


def sl2_length_hyperbolic(rng):
    p = 3
    b = Fraction(rng.randint(1, 9))
    # diag(p, 1/p) conjugated by [[1, b], [0, 1]]
    matrix = [p, b / p - b * p, 0, Fraction(1, p)]
    task = {"command": "sl2-length",
            "payload": {"field": {"field": "Q", "p": p}, "matrix": [str(x) for x in matrix]}}
    # v(p + 1/p) = -1, so the translation length is 2 and nothing is fixed
    want = {"translation_length": ["2"], "fixed_vertex": None}

    def check(r):
        expect(r.doc == want, f"sl2-length gave {r.doc}, want {want}")

    return [], task, check


def sl2_length_elliptic(rng):
    p = 3
    m = [[0, 0], [0, 0]]
    # a unit trace keeps the searched ball at radius 2
    while (m[0][0] + m[1][1]) % p == 0:
        m = [[1, 0], [0, 1]]
        for _ in range(3):
            j = rng.randint(1, 3)
            step = [[1, j], [0, 1]] if rng.random() < 0.5 else [[1, 0], [j, 1]]
            m = [[sum(m[r][k] * step[k][c] for k in range(2)) for c in range(2)]
                 for r in range(2)]
    task = {"command": "sl2-length",
            "payload": {"field": {"field": "Q", "p": p},
                        "matrix": [str(m[0][0]), str(m[0][1]), str(m[1][0]), str(m[1][1])]}}
    # an integer matrix of determinant 1 preserves the standard lattice,
    # which is the first vertex the search visits
    want = {"translation_length": ["0"], "fixed_vertex": "L(0; 0)"}

    def check(r):
        expect(r.doc == want, f"sl2-length gave {r.doc}, want {want}")

    return [], task, check


def _amalgam(m, n):
    return {
        "vertices": {"u": {"gens": ["a"], "rels": []}, "v": {"gens": ["b"], "rels": []}},
        "edges": [{"id": "e", "from": "u", "to": "v", "group": {"gens": ["c"], "rels": []},
                   "into_from": {"c": " ".join(["a"] * m)},
                   "into_to": {"c": " ".join(["b"] * n)}}],
    }


def fundamental_group_amalgam(rng):
    m, n = rng.randint(2, 5), rng.randint(2, 5)
    task = {"command": "fundamental-group", "payload": {"graph": _amalgam(m, n)}}
    # <a, b | a^m = b^n>
    want = {"gens": ["a", "b"], "rels": [" ".join(["a"] * m + ["b-"] * n)]}

    def check(r):
        expect(r.doc["presentation"] == want, f"presentation {r.doc['presentation']}, want {want}")
        expect(r.doc["report"]["valid"] is True, "a valid graph of groups was rejected")

    return [], task, check


def fundamental_group_hnn(rng):
    m = rng.randint(1, 4)
    power = " ".join(["a"] * m)
    graph = {
        "vertices": {"v": {"gens": ["a"], "rels": []}},
        "edges": [{"id": "e", "from": "v", "to": "v", "group": {"gens": ["c"], "rels": []},
                   "into_from": {"c": power}, "into_to": {"c": power}}],
    }
    task = {"command": "fundamental-group", "payload": {"graph": graph}}
    # <a, s | s^-1 a^m s = a^m>
    want = {"gens": ["a", "s"], "rels": [" ".join(["s-"] + ["a"] * m + ["s"] + ["a-"] * m)]}

    def check(r):
        expect(r.doc["presentation"] == want, f"presentation {r.doc['presentation']}, want {want}")

    return [], task, check


def decompose_edge(rng):
    m, n = rng.randint(2, 5), rng.randint(2, 5)
    task = {"command": "decompose-edge", "payload": {"graph": _amalgam(m, n), "edge": "e"}}

    def check(r):
        # <a^m> and <b^n> are proper subgroups, so the amalgam is nontrivial
        expect(r.doc["kind"] == "amalgam", f"edge between two vertices gave {r.doc['kind']}")
        expect(r.doc["nontrivial"] is True, "proper edge embeddings reported as trivial")
        expect(r.doc["surjective"] == {"from": False, "to": False}, "embeddings are not onto")

    return [], task, check


def schreier_rank(rng):
    degree, rank = rng.randint(2, 6), rng.randint(1, 3)
    symbols = ["a", "b", "c"][:rank]
    while True:
        perms = {s: rng.sample(range(1, degree + 1), degree) for s in symbols}
        reached, frontier = {1}, [1]
        while frontier:
            x = frontier.pop()
            for perm in perms.values():
                for y in (perm[x - 1], perm.index(x) + 1):
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        if len(reached) == degree:
            break
    task = {"command": "schreier-rank",
            "payload": {"rank": rank, "action": {"degree": degree, "perms": perms}}}
    want = degree * (rank - 1) + 1

    def check(r):
        expect(r.doc["rank"] == want, f"Schreier rank {r.doc['rank']}, want n(r-1)+1 = {want}")
        expect(len(r.doc["generators"]) == want, "generator count differs from the rank")

    return [], task, check


def length_function(rng):
    letters = [("a", ""), ("a", "-"), ("b", ""), ("b", "-")]
    classes, want = [], []
    while len(classes) < 3:
        word = [rng.choice(letters) for _ in range(len(classes) + 1)]
        reduced = []
        for sym, sign in word:
            if reduced and reduced[-1][0] == sym and reduced[-1][1] != sign:
                reduced.pop()
            else:
                reduced.append((sym, sign))
        while len(reduced) >= 2 and reduced[0][0] == reduced[-1][0] \
                and reduced[0][1] != reduced[-1][1]:
            reduced = reduced[1:-1]
        if len(reduced) != len(word):
            continue
        classes.append(" ".join(s + e for s, e in word))
        want.append([str(len(reduced))])
    task = {"command": "length-function",
            "payload": {"action": {"type": "cayley", "generators": ["a", "b"], "radius": 4},
                        "classes": classes}}

    def check(r):
        expect(r.doc["values"] == want, f"lengths {r.doc['values']}, cyclic lengths {want}")

    return [], task, check


def _log_trace_ratio(x):
    """theta's first coordinate for diag(x, 1/x) over the classes a, a a."""
    return math.log(abs(x + 1 / x)) / math.log(abs(x * x + (1 / x) * (1 / x)))


def theta(rng):
    x = rng.uniform(2.0, 50.0)
    task = {"command": "theta",
            "payload": {"matrices": {"a": [[x, 0.0], [0.0, 1 / x]]}, "classes": ["a", "a a"]}}
    want = _log_trace_ratio(x)

    def check(r):
        expect(r.doc["exact"] is False and r.doc["coords"][1] == 1.0, f"theta gave {r.doc}")
        expect(math.isclose(r.doc["coords"][0], want, rel_tol=1e-12),
               f"theta coordinate {r.doc['coords'][0]}, want {want}")

    return [], task, check


def mu(rng):
    k = rng.randint(1, 4)
    task = {"command": "mu",
            "payload": {"field": {"field": "Q(t)", "at": "inf"},
                        "matrices": {"a": [f"t^{k}", "0", "0", f"1/t^{k}"]},
                        "classes": ["a", "a a", "a a a"]}}
    # v_inf(t^jk + t^-jk) = -jk, so the raw values are k, 2k, 3k
    raw = [[str(j * k)] for j in (1, 2, 3)]

    def check(r):
        expect(r.doc["raw"]["values"] == raw, f"mu raw values {r.doc['raw']['values']}, want {raw}")
        expect(r.doc["point"]["coords"] == ["1/3", "2/3", "1"],
               f"mu point {r.doc['point']['coords']}")

    return [], task, check


def converge_check(rng):
    start = rng.randint(5, 20)
    params = [start, start * 10, start * 100, start * 1000]
    task = {"command": "converge-check",
            "payload": {"field": {"field": "Q(t)", "at": "inf"},
                        "family": {"a": ["t", "0", "0", "1/t"]},
                        "parameters": params, "classes": ["a", "a a"]}}
    # the limit is mu = (1/2, 1); theta's second coordinate is always 1
    want = [abs(_log_trace_ratio(float(Fraction(s))) - 0.5) for s in params]

    def check(r):
        got = r.doc["distance"]
        expect(len(got) == len(want) and all(
            math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-15) for g, w in zip(got, want)),
            f"distances {got}, want {want}")
        expect(r.doc["converged"] == (want[-1] <= 1e-6), "converged flag contradicts the distances")

    return ["--tolerance", "1e-6"], task, check


TASKS = [
    tree_distance, classify_isometry, check_axioms_tree, check_axioms_cycle, base_change,
    quotient, sl2_act, sl2_ball, sl2_length_hyperbolic, sl2_length_hyperbolic,
    sl2_length_elliptic,
    fundamental_group_amalgam, fundamental_group_hnn, decompose_edge, schreier_rank,
    length_function, theta, mu, converge_check,
]


# -- running --------------------------------------------------------------------


def run_child(argv, stdout_path, env, timeout=TASK_TIMEOUT_S):
    """Run one child to its end; return its exit code and peak RSS in KiB."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=REPO_ROOT, env=env)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def setup(seed: int, size: str = "full", trace_into: Optional[dict] = None):
    """``trace_into``: when given, run each task under ``cli_child.py`` and
    merge its trace document (with a ``phases`` list) into this dict."""
    rng = random.Random(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.TemporaryDirectory(prefix="cli-", dir=OUT_DIR)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tasks = TASKS if size == "full" else [classify_isometry, sl2_ball, sl2_length_elliptic]
    ops = []
    for index, make in enumerate(tasks):
        dot_path = os.path.join(workdir.name, f"task{index}.dot")
        extra, task, check = make(rng)
        extra = [dot_path if arg == DOT else arg for arg in extra]
        task_path = os.path.join(workdir.name, f"task{index}.json")
        with open(task_path, "w") as handle:
            json.dump(task, handle)
        out_path = os.path.join(workdir.name, f"task{index}.out")
        trace_path = os.path.join(workdir.name, f"task{index}.trace.json")
        tail = ["--task", task_path] + extra
        if trace_into is None:
            argv = [sys.executable, "-m", "lambdatrees"] + tail
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), trace_path] + tail

        def run(argv=argv, out_path=out_path, dot_path=dot_path, trace_path=trace_path,
                _keep=workdir):
            child_env = dict(env, PERFBENCH_SPAWN_AT=repr(time.perf_counter()))
            code, rss_kb = run_child(argv, out_path, child_env)
            if trace_into is not None:
                with open(trace_path) as handle:
                    part = json.load(handle)
                tracer.merge(trace_into, part)
                trace_into.setdefault("phases", []).append(part["phases"])
            with open(out_path) as handle:
                text = handle.read()
            dot = None
            if os.path.exists(dot_path):
                with open(dot_path) as handle:
                    dot = handle.read()
                os.remove(dot_path)
            return CliResult(code, json.loads(text) if code == 0 else None, dot, rss_kb)

        def checked(result, check=check):
            expect(result.code == 0, f"exit code {result.code}")
            check(result)

        ops.append(Op(f"{task.get('command') or extra[0]} #{index}", run, checked))
    return ops
