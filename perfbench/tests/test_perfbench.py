"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q

Each workload must run and pass its checks, and every checker must reject
a deliberately corrupted answer, so that no check is vacuous.
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(REPO_ROOT, "src")]

from common import CheckFailed  # noqa: E402
from workloads import cayley, cli_tasks, lattice, zoo  # noqa: E402

RUN = os.path.join(BENCH_DIR, "run.py")


def answers(module, seed=5):
    ops = module.setup(seed, "tiny")
    return {op.label: (op, op.run()) for op in ops}


def rejects(op, answer):
    with pytest.raises(CheckFailed):
        op.check(answer)


@pytest.mark.parametrize("module", [cayley, zoo, lattice, cli_tasks])
def test_tiny_workload_runs_and_passes(module):
    for op, answer in answers(module).values():
        op.check(answer)


def test_cayley_rejects_a_length_off_by_one():
    for op, answer in answers(cayley).values():
        rejects(op, [str(int(answer[0]) + 1)])
        rejects(op, [str(int(answer[0]) - 1)])


def test_cayley_class_list_matches_the_burnside_count():
    # cyclic words over F2 up to rotation: 4, 8, 12, 26, 52 of lengths 1..5
    assert len(cayley.cyclic_classes(5)) == 102


def _bump(element_json):
    return element_json[:-1] + [str(int(element_json[-1]) + 1)]


ZOO_CORRUPTIONS = {
    "axioms": [
        lambda a: a.update(valid=False),
        lambda a: a.update(cycle=[True, None, False]),
        lambda a: a["pairings"][0].__setitem__(0, _bump(max(a["pairings"][0]))),
        lambda a: a["dists"].__setitem__(0, _bump(a["dists"][0])),
    ],
    "translation": [
        lambda a: a.update(kind="elliptic"),
        lambda a: a.update(length=_bump(a["length"])),
        lambda a: a["samples"][0].__setitem__(0, _bump(a["samples"][0][0])),
    ],
    "spider": [
        lambda a: a.update(centre_fixed=False),
        lambda a: a.update(length=_bump(a["length"])),
    ],
    "inversion": [
        lambda a: a.update(flipped=_bump(a["flipped"])),
        lambda a: a.update(after="inversion"),
    ],
    "elliptic-pair": [
        lambda a: a["images"].__setitem__(1, a["point"] + "x"),
        lambda a: a.update(point=None),
    ],
    "disjoint-pair": [
        lambda a: a.update(bridge=_bump(a["bridge"])),
        lambda a: a.update(displacement=_bump(a["displacement"])),
        lambda a: a.update(product_length=_bump(a["product_length"])),
    ],
}


def test_zoo_checkers_reject_corrupted_answers():
    got = answers(zoo)
    for kind, corruptions in ZOO_CORRUPTIONS.items():
        op, answer = got[f"{kind} #0"]
        for corrupt in corruptions:
            bad = copy.deepcopy(answer)
            corrupt(bad)
            rejects(op, bad)


def test_zoo_four_point_condition_needs_a_repeated_maximum():
    assert zoo.four_point_holds([["3"], ["5"], ["5"]])
    assert not zoo.four_point_holds([["3"], ["4"], ["5"]])


def test_lattice_checkers_reject_corrupted_answers():
    checked = set()
    for label, (op, answer) in answers(lattice).items():
        if label.startswith("ball"):
            rejects(op, dict(answer, size=answer["size"] + 1))
            src, dist = answer["rows"][0]
            far = next(v for v in dist if dist[v] > 0)
            rejects(op, dict(answer, rows=[(src, {**dist, far: dist[far] + 1})]))
            checked.add("ball")
            continue
        rejects(op, dict(answer, tau=answer["tau"] + 1))
        if "fixed" in answer:
            if answer["fixed"] is None:
                rejects(op, dict(answer, fixed="L(0; 0)", fixed_image="L(0; 0)"))
                checked.add("hyperbolic")
            else:
                # a wrong fixed vertex: g does not fix it
                rejects(op, dict(answer, fixed="L(7; 0)"))
                rejects(op, dict(answer, fixed=None, fixed_image=None))
                checked.add("elliptic")
    assert checked == {"ball", "hyperbolic", "elliptic"}


def test_lattice_quotas_fix_the_trace_valuations():
    ops = lattice.setup(9, "full")
    words = [op.label for op in ops if op.label.startswith("Q_")]
    for p, v, count, _ in lattice.STRATA["full"]:
        assert sum(label.startswith(f"Q_{p} v={v} ") for label in words) == count


def test_ball_size_formula():
    assert [lattice.ball_size(2, r) for r in range(4)] == [1, 4, 10, 22]
    assert lattice.ball_size(3, 3) == 53


def _bump_last(values):
    values[-1] = str(int(values[-1]) + 1)


CLI_CORRUPTIONS = {
    "tree_distance": lambda d: _bump_last(d["distance"]),
    "classify_isometry": lambda d: _bump_last(d["length"]),
    "check_axioms_tree": lambda d: d.update(samples=d["samples"] + 1),
    "check_axioms_cycle": lambda d: d.update(valid=True),
    "base_change": lambda d: d["tree"]["edges"][0].update(len=["1", "1"]),
    "quotient": lambda d: d["vertex_map"].update(x00="x99"),
    "sl2_act": lambda d: d.update(label="L(99; 0)"),
    "sl2_ball": lambda d: d["vertices"].pop(),
    "sl2_length_hyperbolic": lambda d: d.update(translation_length=["4"]),
    "sl2_length_elliptic": lambda d: d.update(fixed_vertex="L(1; 0)"),
    "fundamental_group_amalgam": lambda d: d["presentation"]["rels"].append("a"),
    "fundamental_group_hnn": lambda d: d["presentation"].update(gens=["a", "t"]),
    "decompose_edge": lambda d: d.update(nontrivial=False),
    "schreier_rank": lambda d: d.update(rank=d["rank"] + 1),
    "length_function": lambda d: _bump_last(d["values"][0]),
    "theta": lambda d: d["coords"].__setitem__(0, d["coords"][0] + 1e-6),
    "mu": lambda d: _bump_last(d["raw"]["values"][0]),
    "converge_check": lambda d: d["distance"].__setitem__(-1, 2 * d["distance"][-1] + 1e-9),
}


def test_cli_checkers_reject_corrupted_answers(tmp_path, capsys):
    from lambdatrees import cli

    assert set(CLI_CORRUPTIONS) == {make.__name__ for make in cli_tasks.TASKS}
    commands = set()
    rng = random.Random(3)
    for make in cli_tasks.TASKS:
        extra, task, check = make(rng)
        dot = str(tmp_path / "out.dot")
        extra = [dot if arg == cli_tasks.DOT else arg for arg in extra]
        path = tmp_path / f"{make.__name__}.json"
        path.write_text(json.dumps(task))
        code = cli.main(["--task", str(path)] + extra)
        doc = json.loads(capsys.readouterr().out)
        commands.add(task.get("command") or extra[0])
        dot_text = open(dot).read() if os.path.exists(dot) else None
        good = cli_tasks.CliResult(code, doc, dot_text, 0)
        assert code == 0, (make.__name__, doc)
        check(good)
        bad = copy.deepcopy(good)
        CLI_CORRUPTIONS[make.__name__](bad.doc)
        with pytest.raises(CheckFailed):
            check(bad)
        if os.path.exists(dot):
            os.remove(dot)
    assert commands == set(cli.COMMANDS)


def test_cli_op_rejects_a_wrong_exit_code():
    for op, answer in answers(cli_tasks).values():
        rejects(op, cli_tasks.CliResult(2, answer.doc, answer.dot, answer.rss_kb))


def _run(args, cwd=REPO_ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _metric_names(kind):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return sorted(m["name"] for m in json.load(handle)[kind])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, kind):
    done = _run([RUN, "--workload", "lattice-trace", "--seed", "2", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == _metric_names(kind)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["perfbench/run.py", "--workload", "cayley-lengths", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_tracer_wraps_imported_names_and_restores_them():
    from lambdatrees import lengths, sl2
    from tracer import Tracer

    original = sl2.sl2_translation_length
    tracer = Tracer().install()
    try:
        assert lengths.sl2_translation_length is sl2.sl2_translation_length
        assert sl2.sl2_translation_length is not original
        ops = lattice.setup(4, "tiny")
        for op in ops:
            op.run()
    finally:
        tracer.uninstall()
    assert sl2.sl2_translation_length is original
    assert lengths.sl2_translation_length is original
    doc = tracer.to_json()
    funcs = doc["functions"]
    assert funcs["sl2.act"]["calls"] > 0
    # self time never exceeds total time, and a caller's total covers its callees
    for rec in funcs.values():
        assert rec["self_s"] <= rec["total_s"] + 1e-9
    ffv = funcs["sl2.find_fixed_vertex"]
    assert ffv["self_s"] < ffv["total_s"]
    assert doc["outcomes"]["sl2.find_fixed_vertex"] >= 1
