"""A runtime census of the functions the package defines.

A trace hook records every function and method of ``src/lambdatrees`` that
runs while the program does its work: the five demos, one full round at
seed 1 of the ``cayley-lengths``, ``isometry-zoo`` and ``lattice-trace``
benchmark workloads (each answer checked), and the 19 ``cli-tasks`` task
files and the hostile task files of ``test_cli.py``, all run through
``cli.main`` in this process.  Every definition none of them calls is
listed in NEVER_CALLED with the reason it stays; a definition missing
there is dead code.  Class bodies, which run at import, and lambdas and
comprehensions are left out.

The AST scan in ``test_imports.py`` cannot see what this sees: it exempts
dunder methods, and it counts a method as used while another class's
method of the same name is.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import pathlib
import random
import runpy
import sys

from lambdatrees import cli

from test_cli import HOSTILE_TASKS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lambdatrees"

# what the program never calls, and why each stays
NEVER_CALLED = {
    "cli._write_stats": "opt-in flag --stats (test_cli.py::test_stats_document)",
    "graph_of_groups.HNNDescription.to_json":
        "decompose-edge on a loop edge (test_graph_of_groups.py::test_loop_edge_yields_hnn)",
    "graph_of_groups._check_spanning_tree":
        "opt-in explicit tree_edges (test_graph_of_groups.py::test_explicit_tree_validation)",
    "graph_of_groups._exponent_vector":
        "injectivity into a free abelian group "
        "(test_graph_of_groups.py::test_validation_handles_free_abelian_targets)",
    "isometry.TreeIsometry.__str__": "debugging str",
    "isometry.TreeIsometry._validate":
        "fallback path naming the vertex pair at fault "
        "(test_isometry.py::test_rejects_distance_breaking_map)",
    "lengths.ConjClass.__len__":
        "tier-1 test test_lengths.py::test_enumerate_classes_counts_and_canonicality",
    "lengths.ConjClass.__str__": "debugging str",
    "ordered.LambdaElement.__delattr__": "immutability guard",
    "ordered.LambdaElement.__ge__":
        "tier-1 test test_ordered_kernel.py::test_arithmetic_and_order_match_the_reference",
    "ordered.LambdaElement.__hash__":
        "hashing an edge point (test_isometry.py::test_flip_becomes_elliptic_over_dyadics)",
    "ordered.LambdaElement.__reduce__": "copy/pickle support",
    "ordered.LambdaElement.__repr__": "debugging repr",
    "ordered.LambdaElement.__setattr__": "immutability guard",
    "sl2.Mat2.__str__": "debugging str",
    "sl2.Mat2.of": "tier-1 test oracle lattice_reference.py (test_lattice_metric.py)",
    "tree.LambdaTree.__str__": "debugging str",
    "tree.LambdaTree.vertex_distance":
        "images of hull vertices a map does not list "
        "(test_isometry.py::test_no_inversions_over_dyadic_group)",
    "tree.PathWalk.interior_vertices":
        "inverting a map with edge-point images "
        "(test_two_point.py::test_inverse_matches_the_all_pairs_preimage_search)",
    "tree.TreePoint.to_json":
        "an inversion's flipped segment (test_cli.py::test_classify_isometry_unit_flip)",
    "valuation.Polynomial.__hash__":
        "hashing a Q(t) lattice vertex "
        "(test_sl2.py::test_ball_size_is_bounded_before_enumeration)",
    "valuation.Polynomial.__repr__": "debugging repr",
    "valuation.Polynomial.__setattr__": "immutability guard",
    "valuation.Polynomial.__str__":
        "text of a Q(t) element "
        "(test_valuation.py::test_element_strings_round_trip_through_field)",
    "valuation.Polynomial.coeffs":
        "text of a Q(t) element (test_lengths.py::test_length_function_matrix_examples)",
    "valuation.Polynomial.leading":
        "residue at infinity (test_polynomial_oracle.py::"
        "test_valuations_residues_and_canonical_forms_match_the_oracle)",
    "valuation.RationalFunction.__hash__":
        "hashing a Q(t) lattice vertex "
        "(test_sl2.py::test_ball_size_is_bounded_before_enumeration)",
    "valuation.RationalFunction.__repr__": "debugging repr",
    "valuation.RationalFunction.__setattr__": "immutability guard",
    "valuation.RationalFunction.__str__":
        "text of a Q(t) element "
        "(test_valuation.py::test_element_strings_round_trip_through_field)",
    "valuation._Infinity.__eq__":
        "tier-1 test test_polynomial_oracle.py::"
        "test_valuations_residues_and_canonical_forms_match_the_oracle",
    "valuation._Infinity.__ge__":
        "tier-1 test test_valuation.py::test_valuation_homomorphism_rationals",
    "valuation._Infinity.__gt__": "residue of zero (test_valuation.py::test_residue_examples)",
    "valuation._Infinity.__hash__":
        "tier-1 test test_lattice_metric.py::test_fixed_vertex_matches_breadth_first_search",
    "valuation._Infinity.__new__":
        "runs at import; copy/pickle support: a copied INFINITY is the one sentinel",
    "valuation._Infinity.__repr__": "debugging repr",
}


def definitions(path, module):
    """{(module, name, first line): qualified name} of each function and
    method in the source at path; class bodies, lambdas and comprehensions
    aside."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            qualified = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                found[(module, const.co_name, const.co_firstlineno)] = f"{module}.{qualified}"
                walk(const, qualified + ".<locals>.")
            else:  # a class body
                walk(const, qualified + ".")

    walk(compile(path.read_text(), str(path), "exec"), "")
    return found


def census(run, directory):
    """(module, name, first line) of each function in directory that runs in run()."""
    codes = set()

    def hook(frame, event, arg):
        codes.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    found = set()
    for code in codes:
        path = pathlib.Path(code.co_filename).resolve()
        if path.parent == directory:
            found.add((path.stem, code.co_name, code.co_firstlineno))
    return found


def never_called(directory, run):
    defined = {}
    for path in sorted(directory.glob("*.py")):
        defined.update(definitions(path, path.stem))
    called = census(run, directory)
    return sorted(name for key, name in defined.items() if key not in called)


def run_cli(argv):
    """cli.main's exit code and stdout, with stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_the_program(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    for workload in ("cayley", "zoo", "lattice"):
        for op in importlib.import_module(f"workloads.{workload}").setup(1, "full"):
            op.check(op.run())
    cli_tasks = importlib.import_module("workloads.cli_tasks")
    rng = random.Random(1)
    for index, make in enumerate(cli_tasks.TASKS):
        extra, task, check = make(rng)
        dot = tmp_path / f"task{index}.dot"
        path = tmp_path / f"task{index}.json"
        path.write_text(json.dumps(task))
        argv = ["--task", str(path)] + [str(dot) if a == cli_tasks.DOT else a for a in extra]
        code, out = run_cli(argv)
        assert code == 0, make.__name__
        dot_text = dot.read_text() if dot.exists() else None
        check(cli_tasks.CliResult(code, json.loads(out), dot_text, 0))
    for case, (text, want_code, _, _) in HOSTILE_TASKS.items():
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert run_cli(["--task", str(path)])[0] == want_code, case


def test_every_definition_the_program_never_calls_has_a_reason(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    # import every module first, so what runs at import is never counted,
    # whichever tests ran before
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__main__":
            importlib.import_module(f"lambdatrees.{path.stem}")
    assert never_called(PACKAGE, lambda: run_the_program(tmp_path)) == sorted(NEVER_CALLED)


SAMPLE = '''
class A:
    def used(self):
        return [x for x in (1, 2)]

    def unused(self):
        pass


def outer():
    def inner():
        pass

    return A().used()


def never():
    return lambda: None
'''


def test_the_census_names_each_function_that_does_not_run(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)

    def run():
        spec = importlib.util.spec_from_file_location("sample", tmp_path / "sample.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.outer()

    # the class body runs at import and the comprehension with used(); the
    # nested function, the method and the function that never run are named
    assert never_called(tmp_path.resolve(), run) == [
        "sample.A.unused", "sample.never", "sample.outer.<locals>.inner"]
