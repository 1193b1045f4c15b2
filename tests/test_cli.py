import json
import os
import subprocess
import sys
import time

import pytest

from lambdatrees.cli import main


def write_task(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LINE_TREE = {
    "group": {"rank": 1, "dyadic": False},
    "vertices": ["u", "v", "w"],
    "edges": [
        {"a": "u", "b": "v", "len": ["1"]},
        {"a": "v", "b": "w", "len": ["2"]},
    ],
}

UNIT_EDGE_TREE = {
    "group": {"rank": 1, "dyadic": False},
    "vertices": ["u", "v"],
    "edges": [{"a": "u", "b": "v", "len": ["1"]}],
}

Q2 = {"field": "Q", "p": 2}
QT_INF = {"field": "Q(t)", "at": "inf"}


def test_classify_isometry_unit_flip(tmp_path, capsys):
    task = write_task(tmp_path, "flip.json", {
        "command": "classify-isometry",
        "payload": {
            "tree": UNIT_EDGE_TREE,
            "isometry": {"map": {"u": "v", "v": "u"}},
        },
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "inversion"
    assert doc["length"] == ["0"]
    assert doc["flipped_length"] == ["1"]
    # exact-arithmetic output is byte-identical across runs
    code2, out2, _ = run_cli(["--task", task], capsys)
    assert code2 == 0 and out2 == out


# a translation by 2 along c3-c5 restricted to x, c3 and x3; x is 1 off the axis
RESTRICTED_SHIFT_TREE = {
    "group": {"rank": 1},
    "vertices": ["x", "c3", "x3", "c5", "x5"],
    "edges": [
        {"a": "x", "b": "c3", "len": ["3"]},
        {"a": "c3", "b": "x3", "len": ["1"]},
        {"a": "c3", "b": "c5", "len": ["2"]},
        {"a": "c5", "b": "x5", "len": ["1"]},
    ],
}


def test_classify_isometry_reads_the_length_the_length_function_gives(tmp_path, capsys):
    isometry = {"map": {"x": "x3", "c3": "c5", "x3": "x5"}}
    task = write_task(tmp_path, "shift.json", {
        "command": "classify-isometry",
        "payload": {"tree": RESTRICTED_SHIFT_TREE, "isometry": isometry},
    })
    code, out, err = run_cli(["--task", task], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "kind": "hyperbolic",
        "length": ["2"],
        "tau": ["2"],
        "axis": {"vertices": ["c3"], "arcs": [{"edge": "e0", "from": ["1"], "to": ["3"]}]},
    }
    task = write_task(tmp_path, "length.json", {
        "command": "length-function",
        "payload": {"action": {"type": "tree", "tree": RESTRICTED_SHIFT_TREE,
                               "isometries": {"g": isometry}}, "classes": ["g"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0 and json.loads(out)["values"] == [["2"]]


def test_tree_distance_with_interior_point(tmp_path, capsys):
    task = write_task(tmp_path, "dist.json", {
        "command": "tree-distance",
        "payload": {
            "tree": LINE_TREE,
            "p": "u",
            "q": {"edge": "e1", "offset": ["1"]},
        },
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    assert json.loads(out) == {"distance": ["2"]}


def test_check_axioms_accepts_seed_and_reports_cycles(tmp_path, capsys):
    good = write_task(tmp_path, "good.json", {"tree": LINE_TREE, "samples": 8})
    code, out, _ = run_cli(["check-axioms", "--task", good, "--seed", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["samples"] == 8

    cyclic = dict(LINE_TREE)
    cyclic["edges"] = LINE_TREE["edges"] + [{"a": "w", "b": "u", "len": ["1"]}]
    bad = write_task(tmp_path, "bad.json", {"tree": cyclic})
    code, out, _ = run_cli(["check-axioms", "--task", bad], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is False and doc["axiom"] == "b"
    assert "cycle" in doc["witness"]


def test_base_change_and_quotient(tmp_path, capsys):
    task = write_task(tmp_path, "bc.json", {
        "command": "base-change",
        "payload": {"tree": UNIT_EDGE_TREE, "target": {"rank": 2, "dyadic": False}},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["tree"]["group"] == {"rank": 2, "dyadic": False}
    assert doc["tree"]["edges"][0]["len"] == ["1", "0"]

    rank2 = {
        "group": {"rank": 2, "dyadic": False},
        "vertices": ["x", "y", "z"],
        "edges": [
            {"a": "x", "b": "y", "len": ["0", "1"]},
            {"a": "y", "b": "z", "len": ["1", "0"]},
        ],
    }
    task = write_task(tmp_path, "quot.json", {
        "command": "quotient",
        "payload": {"tree": rank2, "depth": 1},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["vertex_map"] == {"x": "x", "y": "x", "z": "z"}
    assert doc["tree"]["vertices"] == ["x", "z"]
    assert sorted(doc["fibers"]) == ["x", "z"]


def test_sl2_ball_counts_and_dot(tmp_path, capsys):
    task = write_task(tmp_path, "ball.json", {"field": Q2, "radius": 2})
    dot_path = tmp_path / "ball.dot"
    out_path = tmp_path / "ball_result.json"
    code, _, _ = run_cli(
        ["sl2-ball", "--task", task, "--dot", str(dot_path), "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["vertices"]) == 10
    assert len(doc["edges"]) == 9
    assert doc["center"] == "L(0; 0)"
    dot = dot_path.read_text()
    assert dot.count("[label=") == 10
    assert dot.count(" -- ") == 9


def test_sl2_act_and_length(tmp_path, capsys):
    task = write_task(tmp_path, "act.json", {
        "command": "sl2-act",
        "payload": {"field": Q2, "matrix": ["2", "0", "0", "1/2"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    assert json.loads(out)["label"] == "L(2; 0)"

    task = write_task(tmp_path, "len.json", {
        "command": "sl2-length",
        "payload": {"field": Q2, "matrix": ["2", "0", "0", "1/2"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["translation_length"] == ["2"]
    assert doc["fixed_vertex"] is None

    task = write_task(tmp_path, "ell.json", {
        "command": "sl2-length",
        "payload": {"field": Q2, "matrix": ["0", "1", "-1", "0"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["translation_length"] == ["0"]
    assert doc["fixed_vertex"] is not None


def test_fundamental_group_and_decompose(tmp_path, capsys):
    hnn_graph = {
        "vertices": {"v": {"gens": ["a"], "rels": []}},
        "edges": [{
            "id": "e", "from": "v", "to": "v",
            "group": {"gens": ["c"], "rels": []},
            "into_from": {"c": "a"}, "into_to": {"c": "a"},
        }],
    }
    task = write_task(tmp_path, "fg.json", {
        "command": "fundamental-group",
        "payload": {"graph": hnn_graph},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["presentation"] == {"gens": ["a", "s"], "rels": ["s- a s a-"]}
    assert doc["report"]["valid"] is True

    amalgam_graph = {
        "vertices": {"v": {"gens": ["a"], "rels": []},
                     "w": {"gens": ["b"], "rels": []}},
        "edges": [{
            "id": "e", "from": "v", "to": "w",
            "group": {"gens": ["c"], "rels": []},
            "into_from": {"c": "a a"}, "into_to": {"c": "b b b"},
        }],
    }
    task = write_task(tmp_path, "dec.json", {
        "command": "decompose-edge",
        "payload": {"graph": amalgam_graph, "edge": "e"},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "amalgam"
    assert doc["nontrivial"] is True


def test_schreier_rank_with_dot(tmp_path, capsys):
    task = write_task(tmp_path, "sch.json", {
        "rank": 2,
        "action": {"degree": 2, "perms": {"a": [2, 1], "b": [1, 2]}},
    })
    dot_path = tmp_path / "sch.dot"
    code, out, _ = run_cli(
        ["schreier-rank", "--task", task, "--dot", str(dot_path)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3
    assert doc["generators"] == ["b", "a a", "a b a-"]
    assert dot_path.read_text().startswith("digraph")


def test_length_function_action_types(tmp_path, capsys):
    task = write_task(tmp_path, "cayley.json", {
        "command": "length-function",
        "payload": {
            "action": {"type": "cayley", "generators": ["a", "b"], "radius": 5},
            "classes": ["a b a- b-", "a"],
        },
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    assert json.loads(out)["values"] == [["4"], ["1"]]

    task = write_task(tmp_path, "mat.json", {
        "command": "length-function",
        "payload": {
            "action": {"type": "matrix", "field": {"field": "Q(t)", "at": "0"},
                       "matrices": {"a": ["t", "0", "0", "1/t"]}},
            "classes": ["a", "a a"],
        },
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    assert json.loads(out)["values"] == [["2"], ["4"]]

    task = write_task(tmp_path, "tree_action.json", {
        "command": "length-function",
        "payload": {
            "action": {"type": "tree", "tree": LINE_TREE,
                       "isometries": {"a": {"map": {"u": "u", "v": "v", "w": "w"}}}},
            "classes": ["a"],
        },
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    assert json.loads(out)["values"] == [["0"]]

    task = write_task(tmp_path, "badtype.json", {
        "command": "length-function",
        "payload": {"action": {"type": "nope"}, "classes": ["a"]},
    })
    code, _, err = run_cli(["--task", task], capsys)
    assert code == 1
    assert "action type" in err

    task = write_task(tmp_path, "escapes.json", {
        "command": "length-function",
        "payload": {
            "action": {"type": "cayley", "generators": ["a", "b"], "radius": 2},
            "classes": ["a", "a b a b"],
        },
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "OrbitEscapesTree"
    assert doc["message"].startswith('class "a b a b": ')

    for radius, want in ((True, 1), ("3", 1), (2.0, 1), (40, 2)):
        task = write_task(tmp_path, "radius.json", {
            "command": "length-function",
            "payload": {
                "action": {"type": "cayley", "generators": ["a", "b"], "radius": radius},
                "classes": ["a"],
            },
        })
        code, out, err = run_cli(["--task", task], capsys)
        assert code == want, radius
        if want == 1:
            assert "radius must be an integer" in err
        else:
            assert json.loads(out)["error"] == "DomainError"


def test_theta_mu_converge(tmp_path, capsys):
    task = write_task(tmp_path, "theta.json", {
        "command": "theta",
        "payload": {"matrices": {"a": [[100.0, 0.0], [0.0, 0.01]]},
                    "classes": ["a", "a a"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is False
    assert doc["coords"][1] == 1.0
    assert abs(doc["coords"][0] - 0.5) < 1e-4

    task = write_task(tmp_path, "mu.json", {
        "command": "mu",
        "payload": {"field": QT_INF,
                    "matrices": {"a": ["t", "0", "0", "1/t"]},
                    "classes": ["a", "a a"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["point"]["coords"] == ["1/2", "1"]
    assert doc["raw"]["values"] == [["1"], ["2"]]

    csv_path = tmp_path / "conv.csv"
    task = write_task(tmp_path, "conv.json", {
        "command": "converge-check",
        "payload": {"field": QT_INF,
                    "family": {"a": ["t", "0", "0", "1/t"]},
                    "parameters": [10, 100, 1000],
                    "classes": ["a", "a a"],
                    "csv": str(csv_path)},
    })
    code, out, _ = run_cli(["--task", task, "--tolerance", "1e-6"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["tolerance"] == 1e-6
    assert len(doc["distance"]) == 3
    assert csv_path.read_text().startswith("k,distance\n10.0,")

    # a supplied limit reproduces the same distances
    task = write_task(tmp_path, "convlim.json", {
        "command": "converge-check",
        "payload": {"field": QT_INF,
                    "family": {"a": ["t", "0", "0", "1/t"]},
                    "parameters": [10, 100, 1000],
                    "classes": ["a", "a a"],
                    "limit": {"classes": ["a", "a a"],
                              "coords": ["1/2", "1"], "exact": True}},
    })
    code, out2, _ = run_cli(["--task", task], capsys)
    assert code == 0
    assert json.loads(out2)["distance"] == doc["distance"]

    task = write_task(tmp_path, "flat.json", {
        "command": "converge-check",
        "payload": {"field": QT_INF,
                    "family": {"a": ["2", "0", "0", "1/2"]},
                    "parameters": [10, 100],
                    "classes": ["a"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["distance"] == []
    assert "no degeneration" in doc["note"]


def test_parse_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["--task", str(bad)], capsys)
    assert code == 1 and "cannot read task file" in err

    code, _, err = run_cli(["--task", str(tmp_path / "missing.json")], capsys)
    assert code == 1

    task = write_task(tmp_path, "nocmd.json", {"payload": {}})
    code, _, err = run_cli(["--task", task], capsys)
    assert code == 1 and "no command" in err

    task = write_task(tmp_path, "unknown.json", {"command": "explode", "payload": {}})
    code, _, err = run_cli(["--task", task], capsys)
    assert code == 1 and "unknown command" in err

    task = write_task(tmp_path, "mismatch.json", {"command": "mu", "payload": {}})
    code, _, err = run_cli(["theta", "--task", task], capsys)
    assert code == 1 and "task file says" in err

    task = write_task(tmp_path, "shape.json", {
        "command": "sl2-ball",
        "payload": {"field": Q2, "radius": "two"},
    })
    code, _, err = run_cli(["--task", task], capsys)
    assert code == 1 and "radius" in err

    task = write_task(tmp_path, "missingkey.json", {
        "command": "tree-distance",
        "payload": {"tree": LINE_TREE},
    })
    code, _, err = run_cli(["--task", task], capsys)
    assert code == 1 and "payload needs" in err


def test_domain_error_exit_code_and_document(tmp_path, capsys):
    task = write_task(tmp_path, "sing.json", {
        "command": "sl2-length",
        "payload": {"field": Q2, "matrix": ["1", "1", "1", "1"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "DeterminantNotOne"

    task = write_task(tmp_path, "bigp.json", {
        "command": "sl2-ball",
        "payload": {"field": {"field": "Q", "p": 17}, "radius": 1},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "DomainError"

    task = write_task(tmp_path, "badsym.json", {
        "command": "length-function",
        "payload": {
            "action": {"type": "cayley", "generators": ["a"], "radius": 2},
            "classes": ["z"],
        },
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "SymbolError"


def test_flag_applicability(tmp_path, capsys):
    task = write_task(tmp_path, "dist.json", {
        "command": "tree-distance",
        "payload": {"tree": LINE_TREE, "p": "u", "q": "w"},
    })
    code, _, err = run_cli(["--task", task, "--seed", "3"], capsys)
    assert code == 1 and "--seed" in err
    code, _, err = run_cli(["--task", task, "--tolerance", "0.1"], capsys)
    assert code == 1 and "--tolerance" in err
    code, _, err = run_cli(["--task", task, "--dot", "x.dot"], capsys)
    assert code == 1 and "DOT" in err


def test_module_entry_point(tmp_path):
    task = tmp_path / "flip.json"
    task.write_text(json.dumps({
        "command": "classify-isometry",
        "payload": {
            "tree": UNIT_EDGE_TREE,
            "isometry": {"map": {"u": "v", "v": "u"}},
        },
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "lambdatrees", "--task", str(task)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "inversion"


def test_theta_with_a_nan_entry_fails_instead_of_reading_zero(tmp_path, capsys):
    task = write_task(tmp_path, "nan.json", {
        "command": "theta",
        "payload": {"matrices": {"a": [[2.0, 0.0], [0.0, 0.5]],
                                 "b": [[float("nan"), 1.0], [0.0, 1.0]]},
                    "classes": ["a", "b", "a b"]},
    })
    code, out, _ = run_cli(["--task", task], capsys)
    assert code in (1, 2)
    doc = json.loads(out)
    assert doc["error"] == "DomainError"
    assert doc["message"] == 'matrix of generator "b": entry [0][0] is nan, not finite'


def test_large_prime_field_answers_in_bounded_time(tmp_path, capsys):
    for p, want in ((10**18 + 3, 0), (2**61 + 1, 2), (10**30 + 57, 2)):
        task = write_task(tmp_path, "bigp.json", {
            "command": "sl2-act",
            "payload": {"field": {"field": "Q", "p": p}, "matrix": ["1", "0", "0", "1"]},
        })
        start = time.perf_counter()
        code, out, _ = run_cli(["--task", task], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == want, p
        if want == 2:
            assert json.loads(out)["error"] == "DomainError"


def run_module(task_path):
    """Run the CLI in a fresh interpreter; (exit code, stdout, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lambdatrees", "--task", str(task_path)],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


def mu_task(tmp_path, entry):
    return write_task(tmp_path, "mu.json", {
        "command": "mu",
        "payload": {"field": {"field": "Q(t)", "at": "inf"},
                    "matrices": {"a": [entry, "0", "0", "1"]},
                    "classes": ["a"]},
    })


def test_deeply_nested_entry_is_refused_without_a_traceback(tmp_path):
    code, out, seconds = run_module(mu_task(tmp_path, "(" * 3000 + "t" + ")" * 3000))
    assert code == 2 and seconds < 10.0
    doc = json.loads(out)
    assert doc["error"] == "DomainError"
    assert doc["message"] == "parentheses nest deeper than 100 at position 100"


def test_huge_exponent_is_refused_in_bounded_time(tmp_path):
    code, out, seconds = run_module(mu_task(tmp_path, "t^200000"))
    assert code == 2 and seconds < 10.0
    doc = json.loads(out)
    assert doc["error"] == "DomainError"
    assert doc["message"] == "exponent 200000 at position 2 exceeds the degree bound 100"


def test_rational_function_powers_parse_in_bounded_time(tmp_path):
    # without monic remainders, Euclid's gcd on Fraction coefficients took
    # 10-40 s on a 2-vCPU VM; the entry is a unit at infinity, so mu refuses it
    code, out, seconds = run_module(mu_task(tmp_path, "((1+t)/(2+t))^30 * ((3+t)/(5+t))^30"))
    assert code == 2 and seconds < 5.0
    doc = json.loads(out)
    assert doc["error"] == "NotSupportedAtInfinity"
    assert doc["message"] == "every trace has nonnegative valuation"


def test_rational_function_powers_of_fifty_stay_within_five_seconds(tmp_path):
    # Euclid's gcd on Fraction coefficients took 7.6-9.1 s on a 2-vCPU VM,
    # and the primitive remainder sequence over Z 2-3 s
    code, out, seconds = run_module(mu_task(tmp_path, "((1+t)/(2+t))^50 * ((3+t)/(5+t))^50"))
    assert code == 2 and seconds < 5.0
    doc = json.loads(out)
    assert doc["error"] == "NotSupportedAtInfinity"
    assert doc["message"] == "every trace has nonnegative valuation"


def test_oversized_lattice_ball_is_refused_before_enumeration(tmp_path):
    task = write_task(tmp_path, "ball.json", {
        "command": "sl2-ball",
        "payload": {"field": {"field": "Q", "p": 13}, "radius": 9},
    })
    code, out, seconds = run_module(task)
    assert code == 2 and seconds < 10.0
    doc = json.loads(out)
    assert doc["error"] == "DomainError"
    assert doc["message"] == "a radius-9 ball in the tree of Q_13 has more than 100000 vertices"


def one_vertex_tree(group):
    return {"group": group, "vertices": ["u"], "edges": []}


def half_edge_tree(group):
    return {"group": group, "vertices": ["u", "v"], "edges": [{"a": "u", "b": "v", "len": ["1/2"]}]}


# (task file text, exit code, stdout error class or None, message); before
# these checks each task gave a traceback, ran past 10 s, or answered as if
# the field held a valid value
HOSTILE_TASKS = {
    "rank-overflows-int": (
        json.dumps({"command": "tree-distance", "payload": {
            "tree": one_vertex_tree({"rank": "RANK"}), "p": "u", "q": "u"}}).replace(
                '"RANK"', "1e400"),
        2, "DomainError", "group rank inf is not an integer"),
    "rank-too-large": (
        json.dumps({"command": "tree-distance", "payload": {
            "tree": one_vertex_tree({"rank": 10**8}), "p": "u", "q": "u"}}),
        2, "DomainError", "group rank 100000000 exceeds the bound 100"),
    "dyadic-not-a-bool": (
        json.dumps({"command": "tree-distance", "payload": {
            "tree": half_edge_tree({"rank": 1, "dyadic": "no"}), "p": "u", "q": "v"}}),
        2, "DomainError", "group dyadic flag 'no' is not true or false"),
    "p-not-an-integer": (
        json.dumps({"command": "sl2-act", "payload": {
            "field": {"field": "Q", "p": 2.5}, "matrix": ["1", "0", "0", "1"]}}),
        2, "DomainError", "p = 2.5 is not an integer"),
    "point-divides-by-zero": (
        json.dumps({"command": "sl2-act", "payload": {
            "field": {"field": "Q(t)", "at": "1/0"}, "matrix": ["1", "0", "0", "1"]}}),
        2, "DomainError", "cannot parse rational '1/0'"),
    "degree-without-images": (
        json.dumps({"command": "schreier-rank", "payload": {
            "rank": 1, "action": {"degree": 10**11, "perms": {"a": [1]}}}}),
        2, "DomainError", "images of 'a' are not a permutation of 1..100000000000"),
    "samples-too-many": (
        json.dumps({"command": "check-axioms", "payload": {
            "tree": LINE_TREE, "samples": 10**8}}),
        1, None, "bad payload for check-axioms: samples 100000000 exceeds the bound 10000"),
    "decimal-exponent-too-large": (
        json.dumps({"command": "sl2-act", "payload": {
            "field": {"field": "Q", "p": 2}, "matrix": ["1e100000", "0", "0", "1e-100000"]}}),
        2, "DomainError", "exponent 100000 in '1e100000' exceeds the exponent bound 250"),
    "integer-too-long": (
        json.dumps({"command": "sl2-act", "payload": {
            "field": {"field": "Q(t)", "at": "0"}, "matrix": ["1", "9" * 5000 + "*t", "0", "1"]}}),
        2, "DomainError", "5000 digits at position 0 exceed the digit bound 250"),
    "edge-length-exponent-too-large": (
        json.dumps({"command": "tree-distance", "payload": {"tree": {
            "group": {"rank": 1}, "vertices": ["u", "v"],
            "edges": [{"a": "u", "b": "v", "len": ["1e2000000"]}]}, "p": "u", "q": "v"}}),
        2, "DomainError", "exponent 2000000 in '1e2000000' exceeds the exponent bound 250"),
    "edge-length-float-too-large": (
        json.dumps({"command": "tree-distance", "payload": {"tree": {
            "group": {"rank": 1}, "vertices": ["u", "v"],
            "edges": [{"a": "u", "b": "v", "len": [1e308]}]}, "p": "u", "q": "v"}}),
        2, "DomainError", "exponent 308 in '1e+308' exceeds the exponent bound 250"),
    "parameter-exponent-too-large": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"]},
            "parameters": ["5", "1e2000000"], "classes": ["a", "a a"]}}),
        2, "DomainError", "exponent 2000000 in '1e2000000' exceeds the exponent bound 250"),
    "limit-coordinate-too-long": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"]},
            "parameters": ["5", "50"], "classes": ["a", "a a"],
            "limit": {"classes": ["a", "a a"], "coords": ["1" * 300, "1"]}}}),
        2, "DomainError", "300 digits in '11111111111111111111...' exceed the digit bound 250"),
    "limit-coordinate-nan": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"]},
            "parameters": ["5", "50"], "classes": ["a", "a a"],
            "limit": {"classes": ["a", "a a"], "coords": [1.0, "nan"], "exact": False}}}),
        2, "DomainError", 'limit "coords": entry [1] is nan, not finite'),
    "limit-coordinate-infinite": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"]},
            "parameters": ["5", "50"], "classes": ["a", "a a"],
            "limit": {"classes": ["a", "a a"], "coords": [float("inf"), 1.0], "exact": False}}}),
        2, "DomainError", 'limit "coords": entry [0] is inf, not finite'),
    "limit-exact-not-boolean": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"]},
            "parameters": ["5", "50"], "classes": ["a", "a a"],
            "limit": {"classes": ["a", "a a"], "coords": ["1/2", "1"], "exact": "no"}}}),
        2, "DomainError", "limit \"exact\" must be true or false, not 'no'"),
    "duplicate-vertex-ids": (
        json.dumps({"command": "tree-distance", "payload": {"tree": {
            "group": {"rank": 1}, "vertices": ["a", "a", "b"],
            "edges": [{"a": "a", "b": "b", "len": ["1"]}]}, "p": "a", "q": "b"}}),
        2, "DomainError", "duplicate vertex identifiers"),
    "mu-matrices-not-a-map": (
        json.dumps({"command": "mu", "payload": {
            "field": QT_INF, "matrices": [["t", "0", "0", "1/t"]], "classes": ["a"]}}),
        1, None, "bad payload for mu: matrices must map generator symbols to 2x2 arrays"),
    "family-not-a-map": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": "a", "parameters": ["5", "50"], "classes": ["a"]}}),
        1, None,
        "bad payload for converge-check: family must map generator symbols to 2x2 arrays"),
    "action-matrices-not-a-map": (
        json.dumps({"command": "length-function", "payload": {
            "action": {"type": "matrix", "field": Q2, "matrices": [["2", "0", "0", "1/2"]]},
            "classes": ["a"]}}),
        1, None,
        "bad payload for length-function: matrices must map generator symbols to 2x2 arrays"),
    "action-isometries-not-a-map": (
        json.dumps({"command": "length-function", "payload": {
            "action": {"type": "tree", "tree": LINE_TREE, "isometries": 7},
            "classes": ["a"]}}),
        1, None,
        "bad payload for length-function: isometries must map generator symbols to isometries"),
    "csv-not-a-path": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"]},
            "parameters": [10, 100], "classes": ["a", "a a"], "csv": 2}}),
        1, None, "bad payload for converge-check: csv must be a file path string"),
    "isometry-map-not-an-object": (
        json.dumps({"command": "classify-isometry", "payload": {
            "tree": LINE_TREE, "isometry": {"map": ["u", "v"]}}}),
        1, None, "bad payload for classify-isometry: "
        "TypeError('isometry map must be an object from vertices to points')"),
    "graph-vertices-not-an-object": (
        json.dumps({"command": "fundamental-group", "payload": {
            "graph": {"vertices": ["A"], "edges": []}}}),
        1, None, "bad payload for fundamental-group: "
        "TypeError('graph vertices must be an object from names to presentations')"),
    "perms-not-an-object": (
        json.dumps({"command": "schreier-rank", "payload": {
            "rank": 1, "action": {"degree": 1, "perms": [[1]]}}}),
        1, None, "bad payload for schreier-rank: "
        "TypeError('perms must be an object from symbols to image lists')"),
    "attachment-not-an-object": (
        json.dumps({"command": "fundamental-group", "payload": {"graph": {
            "vertices": {"A": {"gens": ["a"], "rels": []}, "B": {"gens": ["b"], "rels": []}},
            "edges": [{"id": "e1", "from": "A", "to": "B", "group": {"gens": ["c"], "rels": []},
                       "into_from": {"c": "a"}, "into_to": ["b"]}]}}}),
        1, None, "bad payload for fundamental-group: TypeError(\"edge 'e1' head attachment "
        "must be an object from edge generators to words\")"),
    "matrix-a-string": (
        json.dumps({"command": "sl2-act", "payload": {"field": Q2, "matrix": "1001"}}),
        1, None, "bad payload for sl2-act: matrix must be a list, not a string"),
    "vertex-a-string": (
        json.dumps({"command": "sl2-act", "payload": {
            "field": Q2, "matrix": ["1", "0", "0", "1"], "vertex": "1001"}}),
        1, None, "bad payload for sl2-act: vertex must be a list, not a string"),
    "center-a-string": (
        json.dumps({"command": "sl2-ball", "payload": {
            "field": Q2, "radius": 1, "center": "1001"}}),
        1, None, "bad payload for sl2-ball: center must be a list, not a string"),
    "tree-edges-a-string": (
        json.dumps({"command": "fundamental-group", "payload": {"graph": {
            "vertices": {"A": {"gens": ["a"], "rels": []}},
            "edges": [{"id": "e1", "from": "A", "to": "A", "group": {"gens": [], "rels": []}}]},
            "tree_edges": "e1"}}),
        1, None, "bad payload for fundamental-group: tree_edges must be a list, not a string"),
    "classes-a-string": (
        json.dumps({"command": "theta", "payload": {
            "matrices": {"a": [[2, 0], [0, 0.5]]}, "classes": "a"}}),
        1, None, "bad payload for theta: classes must be a list, not a string"),
    "tree-vertices-a-string": (
        json.dumps({"command": "tree-distance", "payload": {"tree": {
            "group": {"rank": 1}, "vertices": "abc",
            "edges": [{"a": "a", "b": "b", "len": ["1"]}, {"a": "b", "b": "c", "len": ["1"]}]},
            "p": "a", "q": "c"}}),
        1, None, "bad payload for tree-distance: "
        "TypeError('tree vertices must be a list, not a string')"),
    "edge-length-a-string": (
        json.dumps({"command": "tree-distance", "payload": {"tree": {
            "group": {"rank": 2}, "vertices": ["u", "v"],
            "edges": [{"a": "u", "b": "v", "len": "12"}]}, "p": "u", "q": "v"}}),
        1, None, "bad payload for tree-distance: "
        "TypeError('edge e0 len must be a list, not a string')"),
    "offset-a-string": (
        json.dumps({"command": "tree-distance", "payload": {"tree": {
            "group": {"rank": 1}, "vertices": ["u", "v"],
            "edges": [{"a": "u", "b": "v", "len": ["2"]}]}, "p": "u",
            "q": {"edge": "e0", "offset": "1"}}}),
        1, None, "bad payload for tree-distance: "
        "TypeError(\"coordinates '1' must be a list, not a string\")"),
    "axioms-vertices-a-string": (
        json.dumps({"command": "check-axioms", "payload": {"tree": {
            "group": {"rank": 1}, "vertices": "ab",
            "edges": [{"a": "a", "b": "b", "len": ["1"]}]}}}),
        1, None, "bad payload for check-axioms: "
        "TypeError('tree vertices must be a list, not a string')"),
    "generators-a-string": (
        json.dumps({"command": "length-function", "payload": {
            "action": {"type": "cayley", "generators": "ab", "radius": 2}, "classes": ["a"]}}),
        1, None, "bad payload for length-function: generators must be a list, not a string"),
    "parameters-a-string": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"]},
            "parameters": "59", "classes": ["a", "a a"]}}),
        1, None, "bad payload for converge-check: parameters must be a list, not a string"),
    "matrix-entries-a-string": (
        json.dumps({"command": "mu", "payload": {
            "field": Q2, "matrices": {"a": "1001"}, "classes": ["a"]}}),
        1, None, 'bad payload for mu: matrices "a" must be a list, not a string'),
    "perm-images-a-string": (
        json.dumps({"command": "schreier-rank", "payload": {
            "rank": 1, "action": {"degree": 2, "perms": {"a": "21"}}}}),
        1, None, "bad payload for schreier-rank: "
        "TypeError(\"images of 'a' must be a list, not a string\")"),
    "presentation-a-string": (
        json.dumps({"command": "fundamental-group", "payload": {"graph": {
            "vertices": {"A": {"gens": "ab", "rels": "ab"}}, "edges": []}}}),
        1, None, "bad payload for fundamental-group: "
        "TypeError(\"vertex 'A' gens must be a list, not a string\")"),
    "limit-coords-a-string": (
        json.dumps({"command": "converge-check", "payload": {
            "field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"], "b": ["t", "1", "0", "1/t"]},
            "parameters": [5, 9], "classes": ["a", "b"],
            "limit": {"classes": ["a", "b"], "coords": "11"}}}),
        1, None, 'bad payload for converge-check: limit "coords" must be a list, not a string'),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_TASKS))
def test_hostile_field_ends_in_a_structured_error(tmp_path, case):
    text, want_code, want_error, want_message = HOSTILE_TASKS[case]
    task = tmp_path / "task.json"
    task.write_text(text)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lambdatrees", "--task", str(task)],
        capture_output=True, text=True, timeout=10,
    )
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == want_code, proc.stderr
    if want_error is None:
        assert proc.stdout == ""
        assert proc.stderr.strip() == want_message
    else:
        assert json.loads(proc.stdout) == {"error": want_error, "message": want_message}


# task files that json.load refuses with something other than a
# JSONDecodeError; each ended in a traceback before
UNREADABLE_TASKS = {
    "integer-literal-too-long": (
        b'{"command": "schreier-rank", "payload": {"rank": ' + b"1" * 5000 + b"}}",
        "integer string conversion"),
    "nesting-too-deep": (b"[" * 200_000, "maximum recursion depth exceeded"),
    "utf-16-byte-order-mark": (
        b"\xff\xfe" + '{"command": "theta"}'.encode("utf-16-le"), "codec can't decode"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_TASKS))
def test_unreadable_task_file_ends_in_one_message(tmp_path, case):
    data, detail = UNREADABLE_TASKS[case]
    task = tmp_path / "task.json"
    task.write_bytes(data)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lambdatrees", "--task", str(task)],
        capture_output=True, text=True, timeout=10,
    )
    assert time.perf_counter() - start < 10.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("cannot read task file: ")
    assert detail in proc.stderr and proc.stderr.count("\n") == 1


# (task, exit code, error class, a module the command loads); the stats
# document must not change what the command writes
STATS_CASES = {
    "success": ({"command": "tree-distance",
                 "payload": {"tree": LINE_TREE, "p": "u", "q": "w"}}, 0, None, "tree"),
    "payload-error": ({"command": "tree-distance", "payload": {"tree": LINE_TREE, "p": "u"}},
                      1, "PayloadError", "tree"),
    "domain-error": ({"command": "sl2-ball",
                      "payload": {"field": {"field": "Q", "p": 17}, "radius": 1}},
                     2, "DomainError", "sl2"),
}


@pytest.mark.parametrize("case", sorted(STATS_CASES))
def test_stats_document(tmp_path, capsys, case):
    document, want_code, want_error, module = STATS_CASES[case]
    task = write_task(tmp_path, "task.json", document)
    plain = run_cli(["--task", task], capsys)
    stats_path = tmp_path / "stats.json"
    assert run_cli(["--task", task, "--stats", str(stats_path)], capsys) == plain
    assert plain[0] == want_code
    stats = json.loads(stats_path.read_text())
    assert sorted(stats) == ["command", "compute_ms", "emit_ms", "error", "exit_code",
                             "modules", "parse_ms", "peak_rss_kb", "task_bytes"]
    assert stats["command"] == document["command"]
    assert stats["exit_code"] == want_code and stats["error"] == want_error
    for phase in ("parse_ms", "compute_ms", "emit_ms"):
        assert stats[phase] >= 0.0
    # in-process, modules other tests loaded are listed too
    assert {"lambdatrees.cli", f"lambdatrees.{module}"} <= set(stats["modules"])
    assert stats["task_bytes"] == os.path.getsize(task)
    assert stats["peak_rss_kb"] > 0


def test_stats_of_a_task_file_that_cannot_be_read(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    stats_path = tmp_path / "stats.json"
    code, out, err = run_cli(["--task", str(bad), "--stats", str(stats_path)], capsys)
    assert code == 1 and out == "" and err.startswith("cannot read task file")
    stats = json.loads(stats_path.read_text())
    assert stats["command"] is None and stats["exit_code"] == 1
    assert stats["error"] == "JSONDecodeError" and stats["task_bytes"] == 9
    assert stats["parse_ms"] >= 0.0 and stats["compute_ms"] is None and stats["emit_ms"] is None


def test_boolean_and_unparsable_fields_are_refused(tmp_path, capsys):
    cases = [
        ({"command": "check-axioms", "payload": {"tree": LINE_TREE, "samples": True}},
         1, "bad payload for check-axioms: samples must be a nonnegative integer\n"),
        ({"command": "sl2-act", "payload": {"field": {"field": "Q", "p": True},
                                            "matrix": ["1", "0", "0", "1"]}},
         2, "p = True is not an integer"),
        ({"command": "sl2-act", "payload": {"field": {"field": "Q(t)", "at": "nan"},
                                            "matrix": ["1", "0", "0", "1"]}},
         2, "cannot parse rational 'nan'"),
        ({"command": "tree-distance", "payload": {
            "tree": one_vertex_tree({"rank": True}), "p": "u", "q": "u"}},
         2, "group rank True is not an integer"),
    ]
    for document, want_code, want in cases:
        code, out, err = run_cli(["--task", write_task(tmp_path, "t.json", document)], capsys)
        assert code == want_code, document
        assert (err if code == 1 else json.loads(out)["message"]) == want


# (task, extra arguments, what the message names); each write ended in a
# FileNotFoundError traceback before
UNWRITABLE_OUTPUTS = {
    "out": ({"command": "theta",
             "payload": {"matrices": {"a": [[100.0, 0.0], [0.0, 0.01]]}, "classes": ["a"]}},
            ["--out", "{missing}/result.json"], "output file"),
    "dot": ({"command": "sl2-ball", "payload": {"field": Q2, "radius": 1}},
            ["--dot", "{missing}/ball.dot"], "DOT file"),
    "csv": ({"command": "converge-check",
             "payload": {"field": QT_INF, "family": {"a": ["t", "0", "0", "1/t"]},
                         "parameters": [10, 100], "classes": ["a", "a a"],
                         "csv": "{missing}/conv.csv"}},
            [], "CSV file"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_ends_in_one_message(tmp_path, capsys, case):
    document, extra, what = UNWRITABLE_OUTPUTS[case]
    missing = str(tmp_path / "missing")
    task = write_task(tmp_path, "task.json",
                      json.loads(json.dumps(document).replace("{missing}", missing)))
    code, out, err = run_cli(["--task", task] + [a.format(missing=missing) for a in extra], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"cannot write {what}: [Errno 2] No such file or directory: ")
    assert missing in err and err.count("\n") == 1
