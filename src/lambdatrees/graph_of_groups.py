"""Finite presentations, graphs of groups, and free-group machinery.

A graph of groups carries one presentation per vertex, one per
unoriented edge, and two attachment maps per edge sending edge-group
generators to words in the end vertex groups.  The fundamental group is
synthesized over a deterministic spanning tree: tree edges equate their
two attachment images, non-tree edges add a stable letter conjugating
one image to the other.  Schreier coset graphs handle the free-group
special case, including the index formula for subgroup ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._walk import _breadth_first, _components
from .errors import (
    DomainError,
    InvalidEdge,
    NotConnected,
    NotTransitive,
    SymbolError,
    _not_text,
)
from .words import (
    Word,
    check_symbol,
    format_word,
    free_reduce,
    invert_word,
    parse_word,
)


@dataclass(frozen=True)
class Presentation:
    """Generators and freely reduced relator words."""

    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    @staticmethod
    def make(generators: Sequence[str], relators: Sequence = ()) -> "Presentation":
        gens = tuple(check_symbol(g) for g in generators)
        if len(set(gens)) != len(gens):
            raise SymbolError("duplicate generator symbols")
        declared = set(gens)
        rels = []
        for rel in relators:
            word = parse_word(rel) if isinstance(rel, str) else tuple(rel)
            for sym, sign in word:
                if sym not in declared:
                    raise SymbolError(f"relator uses undeclared symbol {sym!r}")
                if sign not in (1, -1):
                    raise SymbolError(f"bad sign {sign!r} in relator")
            word = free_reduce(word)
            if word:  # vacuous relators add nothing
                rels.append(word)
        return Presentation(gens, tuple(rels))

    @staticmethod
    def free(*generators: str) -> "Presentation":
        return Presentation.make(generators)

    @staticmethod
    def trivial() -> "Presentation":
        return Presentation.make(())

    def to_json(self) -> dict:
        return {
            "gens": list(self.generators),
            "rels": [format_word(w) for w in self.relators],
        }

    @staticmethod
    def from_json(obj: dict, label: str) -> "Presentation":
        gens = _not_text(obj["gens"], f"{label} gens")
        return Presentation.make(gens, _not_text(obj["rels"], f"{label} rels"))


def _parse_attachment(group: Presentation, mapping, label: str) -> Dict[str, Word]:
    if not isinstance(mapping, dict):
        raise TypeError(f"{label} must be an object from edge generators to words")
    out = {}
    for gen, value in mapping.items():
        if gen not in group.generators:
            raise SymbolError(f"{label} maps unknown edge generator {gen!r}")
        if isinstance(value, str):
            out[gen] = parse_word(value)
        else:
            word = tuple((check_symbol(sym), int(sign)) for sym, sign in value)
            if any(sign not in (1, -1) for _, sign in word):
                raise SymbolError(f"{label} has a letter with a bad sign")
            out[gen] = free_reduce(word)
    missing = [g for g in group.generators if g not in out]
    if missing:
        raise SymbolError(f"{label} is missing images for {missing}")
    return out


@dataclass(frozen=True)
class GroupEdge:
    """One unoriented edge with a chosen orientation from tail to head.

    The single edge group embeds into both end vertex groups; the two
    attachment maps record the images of its generators as words.
    """

    id: str
    tail: str
    head: str
    group: Presentation
    into_tail: Dict[str, Word]
    into_head: Dict[str, Word]

    @staticmethod
    def make(id, tail, head, group, into_tail, into_head) -> "GroupEdge":
        return GroupEdge(
            str(id),
            str(tail),
            str(head),
            group,
            _parse_attachment(group, into_tail, f"edge {id!r} tail attachment"),
            _parse_attachment(group, into_head, f"edge {id!r} head attachment"),
        )


@dataclass(frozen=True)
class GraphOfGroups:
    vertex_groups: Dict[str, Presentation]
    edges: Tuple[GroupEdge, ...]

    @staticmethod
    def make(vertex_groups, edges=()) -> "GraphOfGroups":
        if not vertex_groups:
            raise DomainError("a graph of groups needs at least one vertex")
        vg = dict(vertex_groups)
        norm = []
        ids = set()
        for e in edges:
            if e.id in ids:
                raise DomainError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)
            for end in (e.tail, e.head):
                if end not in vg:
                    raise DomainError(f"edge {e.id!r} ends at unknown vertex {end!r}")
            norm.append(e)
        return GraphOfGroups(vg, tuple(norm))

    def edge(self, edge_id: str) -> GroupEdge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise InvalidEdge(f"no edge {edge_id!r}")

    @staticmethod
    def from_json(obj: dict) -> "GraphOfGroups":
        if not isinstance(obj["vertices"], dict):
            raise TypeError("graph vertices must be an object from names to presentations")
        vertices = {
            v: Presentation.from_json(p, f"vertex {v!r}") for v, p in obj["vertices"].items()
        }
        edges = [
            GroupEdge.make(
                spec["id"],
                spec["from"],
                spec["to"],
                Presentation.from_json(spec["group"], f"edge {spec['id']!r} group"),
                spec.get("into_from", {}),
                spec.get("into_to", {}),
            )
            for spec in obj["edges"]
        ]
        return GraphOfGroups.make(vertices, edges)


def _adjacency(gog: GraphOfGroups) -> Dict[str, List[Tuple[str, str]]]:
    adj = {v: [] for v in gog.vertex_groups}
    for e in gog.edges:
        adj[e.tail].append((e.id, e.head))
        if e.head != e.tail:
            adj[e.head].append((e.id, e.tail))
    return adj


def spanning_tree_edges(gog: GraphOfGroups) -> List[str]:
    """Deterministic spanning tree: breadth first from the least vertex."""
    root = min(gog.vertex_groups)
    reached = _breadth_first(root, _adjacency(gog).__getitem__)
    if len(reached) != len(gog.vertex_groups):
        missing = sorted(set(gog.vertex_groups) - reached.keys())
        raise NotConnected(f"vertices unreachable from {root!r}: {missing}")
    return [eid for _, eid in list(reached.values())[1:]]


def _check_spanning_tree(gog: GraphOfGroups, tree: Sequence[str]) -> None:
    ids = {e.id for e in gog.edges}
    for eid in tree:
        if eid not in ids:
            raise InvalidEdge(f"no edge {eid!r}")
    chosen = set(tree)
    adj = _adjacency(gog)
    comps = _components(gog.vertex_groups, lambda u: ((e, w) for e, w in adj[u] if e in chosen))
    # edges leaving c components on n vertices number at least n - c, exactly n - c in a forest
    if len(chosen) > len(gog.vertex_groups) - len(comps):
        raise DomainError("chosen edges contain a cycle")
    if len(comps) > 1:
        raise DomainError("chosen edges do not span the graph")


def fundamental_group_presentation(
    gog: GraphOfGroups, tree_edges: Optional[Sequence[str]] = None
) -> Presentation:
    """Presentation over a spanning tree.

    Generators: every vertex-group generator, then one stable letter per
    non-tree edge.  Relators: vertex relators, then for each tree edge
    the two attachment images equated, then for each non-tree edge the
    conjugation of the head image to the tail image by the stable letter.
    """
    if tree_edges is None:
        tree = spanning_tree_edges(gog)
    else:
        spanning_tree_edges(gog)  # connectivity gate
        tree = list(tree_edges)
        _check_spanning_tree(gog, tree)
    tree_set = set(tree)
    gens: List[str] = []
    used = set()
    for name, pres in gog.vertex_groups.items():
        for g in pres.generators:
            if g in used:
                raise SymbolError(f"generator {g!r} appears in more than one vertex group")
            used.add(g)
            gens.append(g)
    non_tree = [e for e in gog.edges if e.id not in tree_set]
    stable: Dict[str, str] = {}
    counter = 0
    for e in non_tree:
        while True:
            candidate = "s" if counter == 0 else f"s{counter}"
            counter += 1
            if candidate not in used:
                break
        used.add(candidate)
        stable[e.id] = candidate
        gens.append(candidate)
    rels: List[Word] = []
    for pres in gog.vertex_groups.values():
        rels.extend(pres.relators)
    for e in gog.edges:
        if e.id in tree_set:
            for g in e.group.generators:
                word = free_reduce(e.into_tail[g] + invert_word(e.into_head[g]))
                if word:
                    rels.append(word)
    for e in non_tree:
        s = stable[e.id]
        for g in e.group.generators:
            word = free_reduce(
                ((s, -1),) + e.into_head[g] + ((s, 1),) + invert_word(e.into_tail[g])
            )
            if word:
                rels.append(word)
    return Presentation.make(gens, rels)


def _components_without(gog: GraphOfGroups, edge_id: str) -> List[List[str]]:
    adj = _adjacency(gog)
    return _components(gog.vertex_groups, lambda u: ((e, w) for e, w in adj[u] if e != edge_id))


def _restrict(gog: GraphOfGroups, vertices: Sequence[str]) -> GraphOfGroups:
    keep = set(vertices)
    vg = {v: p for v, p in gog.vertex_groups.items() if v in keep}
    edges = [e for e in gog.edges if e.tail in keep and e.head in keep]
    return GraphOfGroups.make(vg, edges)


def _surjective_syntactic(image: Dict[str, Word], target: Presentation) -> bool:
    """Whether the image words cover every target generator as a single
    letter; a deliberately coarse, purely syntactic criterion."""
    covered = {word[0][0] for word in image.values() if len(word) == 1}
    return set(target.generators) <= covered


@dataclass(frozen=True)
class AmalgamDescription:
    """A separating edge: the two side factors glued over the edge group."""

    edge_id: str
    edge_group: Presentation
    tail_factor: Presentation
    head_factor: Presentation
    into_tail: Dict[str, Word]
    into_head: Dict[str, Word]
    tail_embedding_surjective: bool
    head_embedding_surjective: bool
    nontrivial: bool

    def to_json(self) -> dict:
        return {
            "kind": "amalgam",
            "edge": self.edge_id,
            "edge_group": self.edge_group.to_json(),
            "factors": {
                "from": self.tail_factor.to_json(),
                "to": self.head_factor.to_json(),
            },
            "embeddings": {
                "from": {g: format_word(w) for g, w in self.into_tail.items()},
                "to": {g: format_word(w) for g, w in self.into_head.items()},
            },
            "surjective": {
                "from": self.tail_embedding_surjective,
                "to": self.head_embedding_surjective,
            },
            "nontrivial": self.nontrivial,
        }


@dataclass(frozen=True)
class HNNDescription:
    """A non-separating edge: the rest of the graph plus two embeddings
    whose images the stable letter conjugates to each other."""

    edge_id: str
    edge_group: Presentation
    base: Presentation
    into_tail: Dict[str, Word]
    into_head: Dict[str, Word]
    tail_embedding_surjective: bool
    head_embedding_surjective: bool
    nontrivial: bool

    def to_json(self) -> dict:
        return {
            "kind": "hnn",
            "edge": self.edge_id,
            "edge_group": self.edge_group.to_json(),
            "base": self.base.to_json(),
            "embeddings": {
                "from": {g: format_word(w) for g, w in self.into_tail.items()},
                "to": {g: format_word(w) for g, w in self.into_head.items()},
            },
            "surjective": {
                "from": self.tail_embedding_surjective,
                "to": self.head_embedding_surjective,
            },
            "nontrivial": self.nontrivial,
        }


def decompose_along_edge(
    gog: GraphOfGroups, edge_id: str
) -> Union[AmalgamDescription, HNNDescription]:
    edge = gog.edge(edge_id)
    tail_surj = _surjective_syntactic(edge.into_tail, gog.vertex_groups[edge.tail])
    head_surj = _surjective_syntactic(edge.into_head, gog.vertex_groups[edge.head])
    comps = _components_without(gog, edge_id)
    if len(comps) == 2:
        tail_comp = next(c for c in comps if edge.tail in c)
        head_comp = next(c for c in comps if edge.head in c)
        return AmalgamDescription(
            edge_id,
            edge.group,
            fundamental_group_presentation(_restrict(gog, tail_comp)),
            fundamental_group_presentation(_restrict(gog, head_comp)),
            edge.into_tail,
            edge.into_head,
            tail_surj,
            head_surj,
            not tail_surj and not head_surj,
        )
    if len(comps) != 1:
        raise NotConnected("graph is not connected")
    rest = GraphOfGroups.make(
        gog.vertex_groups, [e for e in gog.edges if e.id != edge_id]
    )
    return HNNDescription(
        edge_id,
        edge.group,
        fundamental_group_presentation(rest),
        edge.into_tail,
        edge.into_head,
        tail_surj,
        head_surj,
        True,  # the stable letter always moves a point of the associated tree
    )


def _letters(perms: Dict[str, Tuple[int, ...]]):
    """The step of the coset graph: (generator, image) for each generator."""
    return lambda i: ((sym, images[i - 1]) for sym, images in perms.items())


@dataclass(frozen=True)
class CosetAction:
    """A right action of a free group on cosets 1..degree, one
    permutation per generator, with images stored 1-indexed."""

    degree: int
    perms: Dict[str, Tuple[int, ...]]
    transitive: bool

    @staticmethod
    def make(degree: int, perms) -> "CosetAction":
        if degree < 1:
            raise DomainError("degree must be at least 1")
        if not isinstance(perms, dict):
            raise TypeError("perms must be an object from symbols to image lists")
        norm: Dict[str, Tuple[int, ...]] = {}
        for sym, images in perms.items():
            check_symbol(sym)
            images = tuple(int(i) for i in _not_text(images, f"images of {sym!r}"))
            if len(images) != degree or sorted(images) != list(range(1, degree + 1)):
                raise DomainError(f"images of {sym!r} are not a permutation of 1..{degree}")
            norm[sym] = images
        return CosetAction(degree, norm, len(_breadth_first(1, _letters(norm))) == degree)

    @staticmethod
    def from_json(obj: dict) -> "CosetAction":
        return CosetAction.make(obj["degree"], obj["perms"])


@dataclass(frozen=True)
class SchreierRecord:
    rank: int
    generators: Tuple[Word, ...]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "generators": [format_word(w) for w in self.generators],
        }


def schreier_rank(r: int, action: CosetAction) -> SchreierRecord:
    """Free generators of the index-n subgroup carried by the action.

    The coset graph has one edge per coset per generator; the edges
    outside a breadth-first spanning tree each contribute the word
    t_i x t_j^-1, and there are always n(r-1)+1 of them.
    """
    if r != len(action.perms):
        raise DomainError(f"rank {r} does not match {len(action.perms)} permutations")
    if not action.transitive:
        raise NotTransitive("the coset action is not transitive")
    reached = _breadth_first(1, _letters(action.perms))
    coset_word: Dict[int, Word] = {}
    for j, link in reached.items():
        coset_word[j] = () if link is None else coset_word[link[0]] + ((link[1], 1),)
    gens: List[Word] = []
    for i in reached:
        for sym, images in action.perms.items():
            j = images[i - 1]
            if reached[j] != (i, sym):  # not the tree edge that first reached j
                word = free_reduce(coset_word[i] + ((sym, 1),) + invert_word(coset_word[j]))
                gens.append(word)
    return SchreierRecord(len(gens), tuple(gens))


def schreier_graph_dot(action: CosetAction) -> str:
    lines = ["digraph schreier {"]
    for i in range(1, action.degree + 1):
        lines.append(f"  c{i} [label=\"{i}\"];")
    for sym, images in action.perms.items():
        for i in range(1, action.degree + 1):
            lines.append(f'  c{i} -> c{images[i - 1]} [label="{sym}"];')
    lines.append("}")
    return "\n".join(lines)


def _recognized_shape(p: Presentation):
    """("trivial",), ("free", rank), ("free_abelian", 2), or ("unknown",)."""
    if not p.generators:
        return ("trivial",)
    if not p.relators:
        return ("free", len(p.generators))
    if len(p.generators) == 2 and len(p.relators) == 1:
        rel = p.relators[0]
        syms = {sym for sym, _ in rel}
        sums = {g: sum(sign for sym, sign in rel if sym == g) for g in p.generators}
        if len(rel) == 4 and syms == set(p.generators) and all(s == 0 for s in sums.values()):
            return ("free_abelian", 2)
    return ("unknown",)


def _exponent_vector(word: Word, gens: Sequence[str]) -> Tuple[int, ...]:
    return tuple(sum(sign for sym, sign in word if sym == g) for g in gens)


def _injectivity_status(edge_group: Presentation, image: Dict[str, Word], target: Presentation):
    """Verify injectivity on decidable shapes, otherwise record the gap."""
    edge_shape = _recognized_shape(edge_group)
    target_shape = _recognized_shape(target)
    if edge_shape[0] == "trivial":
        return "verified", "trivial edge group"
    if edge_shape == ("free", 1):
        word = free_reduce(image[edge_group.generators[0]])
        if not word:
            return "invalid", "generator maps to the empty word"
        if target_shape[0] == "free":
            return "verified", "nonempty word has infinite order in a free group"
        if target_shape == ("free_abelian", 2):
            vec = _exponent_vector(word, target.generators)
            if any(vec):
                return "verified", "nonzero exponent vector in a free abelian group"
            return "invalid", "image is trivial in the free abelian target"
        return "assumed", "target group not recognized"
    if edge_shape == ("free", 2) and target_shape[0] == "free":
        images = [free_reduce(image[g]) for g in edge_group.generators]
        letters = {w[0][0] for w in images if len(w) == 1}
        if len(letters) == 2:
            return "verified", "generators map to distinct free generators"
        return "assumed", "free rank-2 image not syntactically basis-like"
    return "assumed", "injectivity not decidable syntactically here"


def validate_graph_of_groups(gog: GraphOfGroups) -> dict:
    """Structural report: connectivity, symbol hygiene, attachment health."""
    problems = []
    try:
        spanning_tree_edges(gog)
        connected = True
    except NotConnected as exc:
        connected = False
        problems.append(str(exc))
    owner = {}
    symbols_ok = True
    for name, pres in gog.vertex_groups.items():
        for g in pres.generators:
            if g in owner:
                symbols_ok = False
                problems.append(
                    f"generator {g!r} declared at both {owner[g]!r} and {name!r}"
                )
            else:
                owner[g] = name
    attachments = []
    for e in gog.edges:
        for side, vertex, image in (
            ("from", e.tail, e.into_tail),
            ("to", e.head, e.into_head),
        ):
            target = gog.vertex_groups[vertex]
            declared = set(target.generators)
            entry = {"edge": e.id, "side": side, "vertex": vertex}
            bad = sorted(
                {sym for w in image.values() for sym, _ in w if sym not in declared}
            )
            if bad:
                entry["status"] = "invalid"
                entry["note"] = f"image uses undeclared symbols {bad}"
            else:
                status, note = _injectivity_status(e.group, image, target)
                entry["status"] = status
                entry["note"] = note
            if entry["status"] == "invalid":
                problems.append(f"edge {e.id!r} ({side}): {entry['note']}")
            attachments.append(entry)
    valid = (
        connected
        and symbols_ok
        and all(a["status"] != "invalid" for a in attachments)
    )
    return {
        "valid": valid,
        "connected": connected,
        "symbols_ok": symbols_ok,
        "attachments": attachments,
        "problems": problems,
    }
