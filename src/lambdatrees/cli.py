"""Command-line front end: JSON task files in, JSON documents and DOT out.

A task file either wraps a command with its payload,

    {"command": "sl2-ball", "payload": {"field": {...}, "radius": 2}}

or is the bare payload, with the command named on the command line.
Results are deterministic JSON (sorted keys); exit status 0 means
success, 1 a parse or usage error, and 2 a domain error, in which case
the result document carries the error code and message.

Each handler imports the library modules it runs, so a command loads only
its own layers: ``tree-distance`` never loads the field stack, and
``schreier-rank`` loads neither stack.  ``--stats FILE`` writes the
command's phase times, loaded modules, task size and peak memory as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .errors import DomainError, LambdaTreeError


MAX_SAMPLES = 10_000  # check-axioms samples; each costs a few segments and medians


class PayloadError(Exception):
    """The payload does not match the command's schema."""


class WriteError(Exception):
    """An output file could not be written; the message names which."""


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise WriteError(f"cannot write {what}: {exc}") from None


def _need(payload: dict, key: str):
    if not isinstance(payload, dict) or key not in payload:
        raise PayloadError(f"payload needs a {key!r} field")
    return payload[key]


def _need_list(payload: dict, key: str, what: Optional[str] = None):
    """The field, refused when it is a string, which would iterate by character."""
    value = _need(payload, key)
    if isinstance(value, str):
        raise PayloadError(f"{what or key} must be a list, not a string")
    return value


def _need_map(payload: dict, key: str, what: str) -> dict:
    value = _need(payload, key)
    if not isinstance(value, dict):
        raise PayloadError(f"{key} must map generator symbols to {what}")
    return value


def _matrices(payload: dict, key: str) -> dict:
    """The generator map under ``key``, each entry list read over the payload's field."""
    from .sl2 import Mat2

    field = _field(_need(payload, "field"))
    matrices = _need_map(payload, key, "2x2 arrays")
    return {
        str(sym): Mat2.from_json(field, _need_list(matrices, sym, f'{key} "{sym}"'))
        for sym in matrices
    }


def _need_int(payload: dict, key: str) -> int:
    value = _need(payload, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise PayloadError(f"{key} must be an integer")
    return value


def _tree(payload: dict):
    from .tree import LambdaTree

    return LambdaTree.from_json(_need(payload, "tree"))


def _field(obj):
    from .valuation import ValuedField

    if not isinstance(obj, dict):
        raise PayloadError("field description must be an object")
    return ValuedField.from_json(obj)


def _point_from_json(obj):
    from math import isfinite

    from .lengths import ProjectivePoint, canonical_class
    from .ordered import bounded_fraction

    classes = [canonical_class(c) for c in _need_list(obj, "classes")]
    exact = obj.get("exact", True)
    if not isinstance(exact, bool):
        raise DomainError(f'limit "exact" must be true or false, not {exact!r}')
    raw = _need_list(obj, "coords", 'limit "coords"')
    if exact:
        coords = [bounded_fraction(str(c)) for c in raw]
    else:
        coords = [float(c) for c in raw]
        for i, c in enumerate(coords):
            if not isfinite(c):
                raise DomainError(f'limit "coords": entry [{i}] is {c}, not finite')
    return ProjectivePoint.make(classes, coords, exact)


def _run_tree_distance(payload, args):
    tree = _tree(payload)
    p = tree.point_from_json(_need(payload, "p"))
    q = tree.point_from_json(_need(payload, "q"))
    return {"distance": tree.distance(p, q).to_json()}, None


def _run_classify_isometry(payload, args):
    from .isometry import TreeIsometry

    tree = _tree(payload)
    iso = TreeIsometry.from_json(tree, _need(payload, "isometry"))
    return iso.classify().to_json(), None


def _run_check_axioms(payload, args):
    from .tree import check_axioms

    candidate = _need(payload, "tree")
    if not isinstance(candidate, dict):
        raise PayloadError("tree must be an object")
    samples = payload.get("samples", 50)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 0:
        raise PayloadError("samples must be a nonnegative integer")
    if samples > MAX_SAMPLES:
        raise PayloadError(f"samples {samples} exceeds the bound {MAX_SAMPLES}")
    seed = args.seed if args.seed is not None else 0
    return check_axioms(candidate, sample_size=samples, seed=seed), None


def _run_base_change(payload, args):
    from .ordered import LambdaGroup

    tree = _tree(payload)
    target = LambdaGroup.from_json(_need(payload, "target"))
    return {"tree": tree.base_change(target).to_json()}, None


def _run_quotient(payload, args):
    from .ordered import ConvexSubgroup

    tree = _tree(payload)
    depth = _need_int(payload, "depth")
    result = tree.convex_quotient_tree(ConvexSubgroup(tree.group, depth))
    return {
        "tree": result.tree.to_json(),
        "vertex_map": result.vertex_map,
        "fibers": {root: fiber.to_json() for root, fiber in sorted(result.fibers.items())},
    }, None


def _run_sl2_act(payload, args):
    from .sl2 import Mat2, act, base_vertex, canonical_vertex

    field = _field(_need(payload, "field"))
    g = Mat2.from_json(field, _need_list(payload, "matrix"))
    if "vertex" in payload:
        x = canonical_vertex(Mat2.from_json(field, _need_list(payload, "vertex")))
    else:
        x = base_vertex(field)
    image = act(g, x)
    return {"vertex": image.to_json(), "label": image.label()}, None


def _run_sl2_ball(payload, args):
    from .sl2 import Mat2, ball, ball_to_dot, base_vertex, canonical_vertex

    field = _field(_need(payload, "field"))
    radius = _need_int(payload, "radius")
    if "center" in payload:
        center = canonical_vertex(Mat2.from_json(field, _need_list(payload, "center")))
    else:
        center = base_vertex(field)
    b = ball(center, radius)
    result = {
        "center": b.center.label(),
        "radius": b.radius,
        "vertices": [v.label() for v in b.vertices],
        "edges": [[a.label(), c.label()] for a, c in b.edges],
    }
    return result, ball_to_dot(b)


def _run_sl2_length(payload, args):
    from .sl2 import Mat2, find_fixed_vertex, sl2_translation_length

    field = _field(_need(payload, "field"))
    g = Mat2.from_json(field, _need_list(payload, "matrix"))
    tau = sl2_translation_length(g)
    fixed = find_fixed_vertex(g)
    return {
        "translation_length": tau.to_json(),
        "fixed_vertex": None if fixed is None else fixed.label(),
    }, None


def _run_fundamental_group(payload, args):
    from .graph_of_groups import (
        GraphOfGroups,
        fundamental_group_presentation,
        validate_graph_of_groups,
    )

    gog = GraphOfGroups.from_json(_need(payload, "graph"))
    tree_edges = payload.get("tree_edges")
    if tree_edges is not None:
        tree_edges = [str(e) for e in _need_list(payload, "tree_edges")]
    presentation = fundamental_group_presentation(gog, tree_edges)
    return {
        "presentation": presentation.to_json(),
        "report": validate_graph_of_groups(gog),
    }, None


def _run_decompose_edge(payload, args):
    from .graph_of_groups import GraphOfGroups, decompose_along_edge

    gog = GraphOfGroups.from_json(_need(payload, "graph"))
    return decompose_along_edge(gog, str(_need(payload, "edge"))).to_json(), None


def _run_schreier_rank(payload, args):
    from .graph_of_groups import CosetAction, schreier_graph_dot, schreier_rank

    rank = _need_int(payload, "rank")
    action = CosetAction.from_json(_need(payload, "action"))
    record = schreier_rank(rank, action)
    return record.to_json(), schreier_graph_dot(action)


def _length_action(spec) -> dict:
    from .isometry import TreeIsometry
    from .lengths import free_group_action
    from .tree import LambdaTree

    if not isinstance(spec, dict):
        raise PayloadError("action must be an object")
    kind = spec.get("type")
    if kind == "cayley":
        _, action = free_group_action(
            [str(s) for s in _need_list(spec, "generators")], _need_int(spec, "radius")
        )
        return action
    if kind == "tree":
        tree = LambdaTree.from_json(_need(spec, "tree"))
        return {
            str(sym): TreeIsometry.from_json(tree, iso)
            for sym, iso in _need_map(spec, "isometries", "isometries").items()
        }
    if kind == "matrix":
        return _matrices(spec, "matrices")
    raise PayloadError("action type must be cayley, tree, or matrix")


def _run_length_function(payload, args):
    from .lengths import length_function

    action = _length_action(_need(payload, "action"))
    return length_function(action, _need_list(payload, "classes")).to_json(), None


def _run_theta(payload, args):
    from .lengths import theta

    point = theta(_need_map(payload, "matrices", "2x2 arrays"), _need_list(payload, "classes"))
    return point.to_json(), None


def _run_mu(payload, args):
    from .lengths import mu

    point, raw = mu(_matrices(payload, "matrices"), _need_list(payload, "classes"))
    return {"point": point.to_json(), "raw": raw.to_json()}, None


def _run_converge_check(payload, args):
    from .lengths import converge_check, converge_csv

    family = _matrices(payload, "family")
    limit = None
    if payload.get("limit") is not None:
        limit = _point_from_json(payload["limit"])
    csv_path = payload.get("csv")
    if csv_path is not None and not isinstance(csv_path, str):
        raise PayloadError("csv must be a file path string")
    tolerance = args.tolerance if args.tolerance is not None else 1e-6
    report = converge_check(
        family,
        _need_list(payload, "parameters"),
        _need_list(payload, "classes"),
        tolerance=tolerance,
        limit=limit,
    )
    if csv_path and report["distance"]:
        _write(csv_path, converge_csv(report), "CSV file")
    return report, None


COMMANDS = {
    "tree-distance": _run_tree_distance,
    "classify-isometry": _run_classify_isometry,
    "check-axioms": _run_check_axioms,
    "base-change": _run_base_change,
    "quotient": _run_quotient,
    "sl2-act": _run_sl2_act,
    "sl2-ball": _run_sl2_ball,
    "sl2-length": _run_sl2_length,
    "fundamental-group": _run_fundamental_group,
    "decompose-edge": _run_decompose_edge,
    "schreier-rank": _run_schreier_rank,
    "length-function": _run_length_function,
    "theta": _run_theta,
    "mu": _run_mu,
    "converge-check": _run_converge_check,
}

TOLERANCE_COMMANDS = {"converge-check"}
SEED_COMMANDS = {"check-axioms"}
DOT_COMMANDS = {"sl2-ball", "schreier-rank"}


def _emit(document: dict, out: Optional[str], what: str = "output file") -> None:
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if out:
        _write(out, text, what)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    from time import perf_counter

    # phase boundaries: start, handler called, handler done, exit code known
    clock = [perf_counter()]

    def mark() -> None:
        clock.append(perf_counter())

    parser = argparse.ArgumentParser(
        prog="lambdatrees",
        description="Run a JSON task against the tree library.",
    )
    parser.add_argument("command", nargs="?", choices=sorted(COMMANDS), metavar="command")
    parser.add_argument("--task", required=True, help="path to the JSON task file")
    parser.add_argument("--out", help="write the result document here instead of stdout")
    parser.add_argument("--dot", help="write DOT output here (graph commands only)")
    parser.add_argument("--tolerance", type=float, help="tolerance for numeric commands")
    parser.add_argument("--seed", type=int, help="seed for sampling commands")
    parser.add_argument("--stats", help="write phase times, loaded modules and peak memory "
                                        "here as JSON")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    outcome = {"command": None, "error": None}
    try:
        code = _run(args, outcome, mark)
    except WriteError as exc:
        outcome["error"] = type(exc).__name__
        print(exc, file=sys.stderr)
        code = 1
    mark()
    if args.stats:
        return _write_stats(args, code, outcome, clock)
    return code


def _run(args, outcome: dict, mark) -> int:
    """Read the task, run its command and write the result; the exit code.

    Records the command and the class of any error caught in ``outcome``,
    and calls ``mark`` as the handler is called and as it returns or raises.
    """
    try:
        with open(args.task) as handle:
            task = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, undecodable bytes, or an integer
        # literal past int's digit limit; RecursionError: deep nesting
        outcome["error"] = type(exc).__name__
        print(f"cannot read task file: {exc}", file=sys.stderr)
        return 1

    if not isinstance(task, dict):
        print("task file must hold a JSON object", file=sys.stderr)
        return 1
    file_command = task.get("command")
    if file_command is not None and not isinstance(file_command, str):
        print("task command must be a string", file=sys.stderr)
        return 1
    command = args.command or file_command
    if command is None:
        print("no command given on the command line or in the task file", file=sys.stderr)
        return 1
    if args.command and file_command and args.command != file_command:
        print(
            f"command line says {args.command!r} but the task file says {file_command!r}",
            file=sys.stderr,
        )
        return 1
    if command not in COMMANDS:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 1
    outcome["command"] = command
    payload = task.get("payload", task if file_command is None else {})
    if args.tolerance is not None and command not in TOLERANCE_COMMANDS:
        print(f"--tolerance does not apply to {command}", file=sys.stderr)
        return 1
    if args.seed is not None and command not in SEED_COMMANDS:
        print(f"--seed does not apply to {command}", file=sys.stderr)
        return 1
    if args.dot and command not in DOT_COMMANDS:
        print(f"{command} produces no DOT output", file=sys.stderr)
        return 1

    mark()
    try:
        result, dot = COMMANDS[command](payload, args)
    except (PayloadError, LambdaTreeError, KeyError, TypeError, ValueError) as exc:
        mark()
        outcome["error"] = type(exc).__name__
        if isinstance(exc, LambdaTreeError):
            _emit({"error": exc.code, "message": str(exc)}, args.out)
            return 2
        detail = str(exc) if isinstance(exc, PayloadError) else repr(exc)
        print(f"bad payload for {command}: {detail}", file=sys.stderr)
        return 1
    mark()

    if args.dot and dot is not None:
        _write(args.dot, dot, "DOT file")
    _emit(result, args.out)
    return 0


def _write_stats(args, code: int, outcome: dict, clock: list) -> int:
    """Write the --stats document; the exit code, or 1 if it cannot be written."""
    import os
    import resource

    phases = [(end - start) * 1e3 for start, end in zip(clock, clock[1:])]
    phases += [None] * (3 - len(phases))  # phases a refused task never reached
    try:
        task_bytes = os.path.getsize(args.task)
    except OSError:
        task_bytes = None
    stats = {
        "command": outcome["command"],
        "exit_code": code,
        "error": outcome["error"],
        "parse_ms": phases[0],
        "compute_ms": phases[1],
        "emit_ms": phases[2],
        "modules": sorted(name for name in sys.modules if name.startswith("lambdatrees.")),
        "task_bytes": task_bytes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    try:
        _emit(stats, args.stats, "stats file")
    except WriteError as exc:
        print(exc, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
