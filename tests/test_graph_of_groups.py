"""Presentations, graphs of groups, and Schreier coset graphs.

The three presentation-synthesis examples are frozen byte for byte.
The Schreier generator words were computed by hand from the coset
graph (tree paths t_i, then t_i x t_j^-1 per non-tree edge) and are
re-checked here by evaluating each word in the coset action.
"""

import random

import pytest

from graph_reference import random_spanning_tree
from lambdatrees.errors import (
    DomainError,
    InvalidEdge,
    NotConnected,
    NotTransitive,
    SymbolError,
)
from lambdatrees.graph_of_groups import (
    AmalgamDescription,
    CosetAction,
    GraphOfGroups,
    GroupEdge,
    HNNDescription,
    Presentation,
    decompose_along_edge,
    fundamental_group_presentation,
    schreier_graph_dot,
    schreier_rank,
    spanning_tree_edges,
    validate_graph_of_groups,
)
from lambdatrees.words import free_reduce, parse_word


def edge(eid, tail, head, group, into_tail, into_head):
    return GroupEdge.make(eid, tail, head, group, into_tail, into_head)


def hnn_loop():
    return GraphOfGroups.make(
        {"v": Presentation.free("a")},
        [edge("e", "v", "v", Presentation.free("c"), {"c": "a"}, {"c": "a"})],
    )


def amalgam_pair():
    return GraphOfGroups.make(
        {"u": Presentation.free("a"), "v": Presentation.free("b")},
        [edge("e", "u", "v", Presentation.free("c"), {"c": "a a"}, {"c": "b b b"})],
    )


def test_presentation_construction_and_reduction():
    p = Presentation.make(["a", "b"], ["a a- b"])
    assert p.to_json() == {"gens": ["a", "b"], "rels": ["b"]}
    assert Presentation.from_json(p.to_json(), "vertex 'v'") == p
    assert Presentation.trivial().generators == ()
    assert Presentation.free("x", "y").relators == ()
    with pytest.raises(SymbolError):
        Presentation.make(["a", "a"])
    with pytest.raises(SymbolError):
        Presentation.make(["a"], ["a z"])
    with pytest.raises(SymbolError):
        Presentation.make(["a-"])


def test_loop_with_cyclic_edge_group_gives_conjugation_relator():
    p = fundamental_group_presentation(hnn_loop())
    assert p.to_json() == {"gens": ["a", "s"], "rels": ["s- a s a-"]}


def test_two_vertex_edge_gives_amalgam_relator():
    p = fundamental_group_presentation(amalgam_pair())
    assert p.to_json() == {"gens": ["a", "b"], "rels": ["a a b- b- b-"]}


def test_trivial_loop_gives_free_group_of_rank_one():
    gog = GraphOfGroups.make(
        {"v": Presentation.trivial()},
        [edge("e", "v", "v", Presentation.trivial(), {}, {})],
    )
    p = fundamental_group_presentation(gog)
    assert p.to_json() == {"gens": ["s"], "rels": []}


def test_single_vertex_returns_its_own_presentation():
    pres = Presentation.make(["a", "b"], ["a b a- b-"])
    gog = GraphOfGroups.make({"v": pres})
    assert fundamental_group_presentation(gog) == pres


def test_stable_letters_avoid_declared_symbols():
    gog = GraphOfGroups.make(
        {"v": Presentation.free("s")},
        [edge("e", "v", "v", Presentation.trivial(), {}, {})],
    )
    p = fundamental_group_presentation(gog)
    assert p.generators == ("s", "s1")


def theta_graph():
    vg = {"u": Presentation.trivial(), "v": Presentation.trivial()}
    es = [
        edge(eid, "u", "v", Presentation.trivial(), {}, {})
        for eid in ("e1", "e2", "e3")
    ]
    return GraphOfGroups.make(vg, es)


def test_spanning_tree_is_deterministic():
    gog = theta_graph()
    assert spanning_tree_edges(gog) == ["e1"]
    assert spanning_tree_edges(gog) == spanning_tree_edges(gog)
    p = fundamental_group_presentation(gog)
    assert p.to_json() == {"gens": ["s", "s1"], "rels": []}


def test_free_rank_equals_edge_count_minus_vertex_count_plus_one():
    rng = random.Random(19)
    for _ in range(12):
        n = rng.randrange(3, 7)
        names = [f"v{i}" for i in range(n)]
        vg = {v: Presentation.trivial() for v in names}
        edges = []
        for i in range(1, n):
            j = rng.randrange(i)
            edges.append(edge(f"t{i}", names[j], names[i], Presentation.trivial(), {}, {}))
        for k in range(rng.randrange(0, 5)):
            a, b = rng.choice(names), rng.choice(names)
            edges.append(edge(f"x{k}", a, b, Presentation.trivial(), {}, {}))
        gog = GraphOfGroups.make(vg, edges)
        p = fundamental_group_presentation(gog)
        assert p.relators == ()
        assert len(p.generators) == len(edges) - n + 1


def square_of_cyclic_groups():
    vg = {
        "u": Presentation.free("a"),
        "v": Presentation.free("b"),
        "w": Presentation.free("d"),
        "x": Presentation.free("f"),
    }
    es = [
        edge("e1", "u", "v", Presentation.free("c1"), {"c1": "a a"}, {"c1": "b"}),
        edge("e2", "v", "w", Presentation.free("c2"), {"c2": "b b"}, {"c2": "d"}),
        edge("e3", "w", "x", Presentation.free("c3"), {"c3": "d d"}, {"c3": "f"}),
        edge("e4", "x", "u", Presentation.free("c4"), {"c4": "f f"}, {"c4": "a"}),
    ]
    return GraphOfGroups.make(vg, es)


def test_generator_and_relator_counts_are_tree_independent():
    gog = square_of_cyclic_groups()
    base = fundamental_group_presentation(gog)
    rng = random.Random(3)
    for _ in range(6):
        tree = random_spanning_tree(gog, rng)
        p = fundamental_group_presentation(gog, tree_edges=tree)
        assert len(p.generators) == len(base.generators) == 5
        assert len(p.relators) == len(base.relators) == 4


def test_explicit_tree_validation():
    gog = square_of_cyclic_groups()
    with pytest.raises(InvalidEdge):
        fundamental_group_presentation(gog, tree_edges=["e1", "nope", "e3"])
    with pytest.raises(DomainError):
        fundamental_group_presentation(gog, tree_edges=["e1", "e2"])
    with pytest.raises(DomainError):
        fundamental_group_presentation(gog, tree_edges=["e1", "e2", "e3", "e4"])


def test_disconnected_graph_is_rejected():
    gog = GraphOfGroups.make(
        {"u": Presentation.free("a"), "v": Presentation.free("b")}
    )
    with pytest.raises(NotConnected):
        fundamental_group_presentation(gog)
    report = validate_graph_of_groups(gog)
    assert report["connected"] is False
    assert report["valid"] is False


def test_repeated_generator_symbol_across_vertices():
    gog = GraphOfGroups.make(
        {"u": Presentation.free("a"), "v": Presentation.free("a")},
        [edge("e", "u", "v", Presentation.trivial(), {}, {})],
    )
    with pytest.raises(SymbolError):
        fundamental_group_presentation(gog)
    report = validate_graph_of_groups(gog)
    assert report["symbols_ok"] is False


def test_separating_edge_yields_amalgam():
    vg = {
        "u": Presentation.free("a"),
        "v": Presentation.free("b"),
        "w": Presentation.free("d"),
    }
    es = [
        edge("e1", "u", "v", Presentation.free("c1"), {"c1": "a a"}, {"c1": "b b"}),
        edge("e2", "v", "w", Presentation.free("c2"), {"c2": "b b b"}, {"c2": "d d d"}),
    ]
    gog = GraphOfGroups.make(vg, es)
    desc = decompose_along_edge(gog, "e1")
    assert isinstance(desc, AmalgamDescription)
    assert desc.tail_factor == Presentation.free("a")
    assert desc.head_factor.generators == ("b", "d")
    assert len(desc.head_factor.relators) == 1
    assert desc.nontrivial is True
    assert desc.to_json()["kind"] == "amalgam"
    with pytest.raises(InvalidEdge):
        decompose_along_edge(gog, "missing")


def test_loop_edge_yields_hnn():
    desc = decompose_along_edge(hnn_loop(), "e")
    assert isinstance(desc, HNNDescription)
    assert desc.base == Presentation.free("a")
    assert desc.nontrivial is True
    assert desc.to_json()["kind"] == "hnn"


def test_cycle_edge_yields_hnn_over_remaining_tree():
    gog = theta_graph()
    desc = decompose_along_edge(gog, "e2")
    assert isinstance(desc, HNNDescription)
    # two vertices and two remaining parallel edges leave one loop
    assert desc.base.to_json() == {"gens": ["s"], "rels": []}


def test_surjective_embedding_marks_trivial_amalgam():
    gog = GraphOfGroups.make(
        {"u": Presentation.free("a"), "v": Presentation.free("b")},
        [edge("e", "u", "v", Presentation.free("c"), {"c": "a"}, {"c": "b b b"})],
    )
    desc = decompose_along_edge(gog, "e")
    assert desc.tail_embedding_surjective is True
    assert desc.head_embedding_surjective is False
    assert desc.nontrivial is False


def test_validation_verifies_infinite_cyclic_attachments():
    report = validate_graph_of_groups(amalgam_pair())
    assert report["valid"] is True
    assert [a["status"] for a in report["attachments"]] == ["verified", "verified"]


def test_validation_flags_empty_word_attachment():
    gog = GraphOfGroups.make(
        {"u": Presentation.free("a"), "v": Presentation.free("b")},
        [edge("e", "u", "v", Presentation.free("c"), {"c": ""}, {"c": "b"})],
    )
    report = validate_graph_of_groups(gog)
    assert report["valid"] is False
    statuses = {(a["side"], a["status"]) for a in report["attachments"]}
    assert ("from", "invalid") in statuses


def test_validation_flags_undeclared_symbols():
    gog = GraphOfGroups.make(
        {"u": Presentation.free("a"), "v": Presentation.free("b")},
        [edge("e", "u", "v", Presentation.free("c"), {"c": "z"}, {"c": "b"})],
    )
    report = validate_graph_of_groups(gog)
    assert report["valid"] is False
    with pytest.raises(SymbolError):
        fundamental_group_presentation(gog)


def test_validation_handles_free_abelian_targets():
    z2 = Presentation.make(["a", "b"], ["a b a- b-"])
    gog = GraphOfGroups.make(
        {"u": z2, "v": Presentation.free("d")},
        [
            edge("e1", "u", "v", Presentation.free("c"), {"c": "a b"}, {"c": "d"}),
            edge("e2", "u", "v", Presentation.free("k"), {"k": "a b a- b-"}, {"k": "d"}),
        ],
    )
    report = validate_graph_of_groups(gog)
    by_key = {(a["edge"], a["side"]): a["status"] for a in report["attachments"]}
    assert by_key[("e1", "from")] == "verified"
    # the commutator dies in the abelian vertex group
    assert by_key[("e2", "from")] == "invalid"
    assert report["valid"] is False


def test_graph_of_groups_json_round_trip():
    cyclic = {"u": "a", "v": "b", "w": "d", "x": "f"}
    square = [("e1", "u", "v", "c1"), ("e2", "v", "w", "c2"), ("e3", "w", "x", "c3"),
              ("e4", "x", "u", "c4")]
    blob = {
        "vertices": {v: {"gens": [g], "rels": []} for v, g in cyclic.items()},
        "edges": [
            {"id": eid, "from": tail, "to": head, "group": {"gens": [c], "rels": []},
             "into_from": {c: f"{cyclic[tail]} {cyclic[tail]}"}, "into_to": {c: cyclic[head]}}
            for eid, tail, head, c in square
        ],
    }
    gog = square_of_cyclic_groups()
    again = GraphOfGroups.from_json(blob)
    assert again == gog
    assert fundamental_group_presentation(again) == fundamental_group_presentation(gog)


def test_schreier_index_two_subgroup():
    action = CosetAction.make(2, {"a": [2, 1], "b": [1, 2]})
    record = schreier_rank(2, action)
    assert record.rank == 3
    assert record.to_json()["generators"] == ["b", "a a", "a b a-"]


def test_schreier_whole_group():
    action = CosetAction.make(1, {"x": [1], "y": [1], "z": [1]})
    record = schreier_rank(3, action)
    assert record.rank == 3
    assert record.to_json()["generators"] == ["x", "y", "z"]


def test_schreier_index_three_subgroup():
    action = CosetAction.make(3, {"a": [2, 3, 1], "b": [1, 2, 3]})
    record = schreier_rank(2, action)
    assert record.rank == 4
    assert record.to_json()["generators"] == ["b", "a b a-", "a a a", "a a b a- a-"]


def test_schreier_errors():
    with pytest.raises(NotTransitive):
        schreier_rank(2, CosetAction.make(2, {"a": [1, 2], "b": [1, 2]}))
    with pytest.raises(DomainError):
        schreier_rank(3, CosetAction.make(2, {"a": [2, 1], "b": [1, 2]}))
    with pytest.raises(DomainError):
        CosetAction.make(2, {"a": [1, 1]})


def image_of_base_coset(action, word):
    """Coset 1 moved letter by letter through the action's permutations."""
    coset = 1
    for sym, sign in word:
        images = action.perms[sym]
        coset = images[coset - 1] if sign > 0 else images.index(coset) + 1
    return coset


def test_schreier_formula_on_random_transitive_actions():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(1, 9)
        r = rng.randrange(1, 5)
        perms = {}
        for k in range(r):
            sym = "abcd"[k]
            if k == 0:
                # a full cycle keeps the action transitive
                perms[sym] = [i % n + 1 for i in range(1, n + 1)]
            else:
                images = list(range(1, n + 1))
                rng.shuffle(images)
                perms[sym] = images
        action = CosetAction.make(n, perms)
        assert action.transitive
        record = schreier_rank(r, action)
        assert record.rank == n * (r - 1) + 1
        for word in record.generators:
            assert word == free_reduce(word) and word
            assert image_of_base_coset(action, word) == 1


def test_schreier_words_fix_base_coset_in_frozen_examples():
    action = CosetAction.make(3, {"a": [2, 3, 1], "b": [1, 2, 3]})
    for text in ("b", "a b a-", "a a a", "a a b a- a-"):
        assert image_of_base_coset(action, parse_word(text)) == 1


def test_coset_action_json_and_dot():
    action = CosetAction.make(2, {"a": [2, 1], "b": [1, 2]})
    blob = {"degree": 2, "perms": {"a": [2, 1], "b": [1, 2]}}
    assert CosetAction.from_json(blob) == action
    dot = schreier_graph_dot(action)
    assert dot.startswith("digraph schreier {")
    assert dot.count("->") == 4
    assert dot == schreier_graph_dot(CosetAction.from_json(blob))
