"""Hyperbolic length functions of group actions and their projective limits.

Conjugacy classes of a free group are canonical cyclic words.  An action
assigns each generator a tree isometry or a 2x2 matrix over a valued
field; the length of a class is the translation length of the evaluated
word.  Length vectors over a finite class list projectivize by dividing
through the maximal coordinate, and two numeric maps land in the same
projective space: theta takes log-traces of a real matrix family, mu
takes negated trace valuations.  A convergence harness substitutes real
parameters into a symbolic family and tracks the projective distance
from theta to a limit point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    BoundedCharacter,
    ClassListMismatch,
    DomainError,
    FieldMismatch,
    LambdaTreeError,
    NotSupportedAtInfinity,
    SymbolError,
    TreeMismatch,
    TrivialAction,
)
from .isometry import TreeIsometry, two_point_length
from .ordered import LambdaElement, LambdaGroup, bounded_fraction, ratio
from .sl2 import Mat2, sl2_translation_length
from .tree import LambdaTree
from .valuation import RationalFunction, is_infinite
from .words import (
    Word,
    check_symbol,
    cyclic_reduce,
    format_word,
    free_reduce,
    least_rotation,
    parse_word,
    word_key,
    word_symbols,
)


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class, stored as its canonical cyclic word.

    The canonical form is the lexicographically least rotation of the
    cyclically reduced word, so conjugate inputs compare equal.
    """

    word: Word

    @property
    def text(self) -> str:
        return format_word(self.word)

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.text or "1"


def canonical_class(word: Union[str, Word], generators: Optional[Sequence[str]] = None) -> ConjClass:
    """Free reduction, then cyclic reduction, then least rotation."""
    w = parse_word(word) if isinstance(word, str) else free_reduce(tuple(word))
    if generators is not None:
        allowed = set(generators)
        for sym in word_symbols(w):
            if sym not in allowed:
                raise SymbolError(f"unknown generator {sym!r}")
    return ConjClass(least_rotation(cyclic_reduce(w)))


def enumerate_classes(generators: Sequence[str], max_length: int) -> List[ConjClass]:
    """All nontrivial conjugacy classes of cyclic word length up to max_length."""
    syms = _generators(generators)
    if max_length < 1:
        raise DomainError("max_length must be at least 1")
    size = _reduced_word_count(len(syms), max_length)
    if size > MAX_CAYLEY_VERTICES:
        raise DomainError(
            f"classes up to length {max_length} over generators {', '.join(syms)} span"
            f" {size} reduced words, more than {MAX_CAYLEY_VERTICES}"
        )
    seen = {
        least_rotation(w)
        for w in _reduced_words(syms, max_length)[1:]
        if w[0] != (w[-1][0], -w[-1][1])
    }
    return [ConjClass(w) for w in sorted(seen, key=lambda w: (len(w), word_key(w)))]


@dataclass(frozen=True)
class ClassFunction:
    """Nonnegative length values over an ordered list of classes."""

    classes: Tuple[ConjClass, ...]
    values: Tuple[LambdaElement, ...]

    @staticmethod
    def make(classes: Sequence[ConjClass], values: Sequence[LambdaElement]) -> "ClassFunction":
        classes = tuple(classes)
        values = tuple(values)
        if len(classes) != len(values):
            raise DomainError("one value per class required")
        if not classes:
            raise DomainError("empty class list")
        for v in values:
            values[0]._require_same_group(v)
            if v.sign() < 0:
                raise DomainError("length values must be nonnegative")
        return ClassFunction(classes, values)

    def to_json(self) -> dict:
        return {
            "classes": [c.text for c in self.classes],
            "values": [v.to_json() for v in self.values],
        }


@dataclass(frozen=True)
class ProjectivePoint:
    """Coordinates over a class list, normalized so the maximum is one.

    Exact points carry Fractions (from ratio arithmetic); numeric points
    carry floats (from theta).
    """

    classes: Tuple[ConjClass, ...]
    coords: tuple
    exact: bool

    @staticmethod
    def make(classes, coords, exact: bool) -> "ProjectivePoint":
        classes = tuple(classes)
        coords = tuple(coords)
        if len(classes) != len(coords):
            raise DomainError("one coordinate per class required")
        if not coords:
            raise DomainError("empty class list")
        top = Fraction(1) if exact else 1.0
        if any(c < 0 for c in coords) or max(coords) != top:
            raise DomainError("coordinates must be nonnegative with maximum one")
        return ProjectivePoint(classes, coords, exact)

    def to_json(self) -> dict:
        coords = [str(c) for c in self.coords] if self.exact else [float(c) for c in self.coords]
        return {
            "classes": [c.text for c in self.classes],
            "coords": coords,
            "exact": self.exact,
        }


def _as_classes(classes, generators) -> Tuple[ConjClass, ...]:
    out = []
    for c in classes:
        if isinstance(c, ConjClass):
            for sym in word_symbols(c.word):
                if sym not in generators:
                    raise SymbolError(f"unknown generator {sym!r}")
            out.append(c)
        else:
            out.append(canonical_class(c, generators))
    if not out:
        raise DomainError("empty class list")
    return tuple(out)


def _tree_length(action: Dict[str, TreeIsometry], word: Word) -> LambdaElement:
    letters = [action[sym] if sign == 1 else action[sym].inverse() for sym, sign in word]
    length = two_point_length(letters)
    if length is not None:
        return length
    acc = letters[0]
    for step in letters[1:]:
        acc = acc.compose(step)
    return acc.classify().length


def _matrix_word(action: Dict[str, Mat2], word: Word) -> Mat2:
    field = next(iter(action.values())).field
    acc = Mat2.identity(field)
    for sym, sign in word:
        acc = acc * (action[sym] if sign == 1 else action[sym].inverse())
    return acc


def _class_values(class_list: Sequence[ConjClass], zero: LambdaElement, evaluate) -> List[LambdaElement]:
    """evaluate(word) per nontrivial class; an error names the class at fault."""
    values = []
    for c in class_list:
        if not c.word:
            values.append(zero)
            continue
        try:
            values.append(evaluate(c.word))
        except LambdaTreeError as exc:
            raise type(exc)(f'class "{c.text}": {exc}') from exc
    return values


def length_function(action: dict, classes: Sequence) -> ClassFunction:
    """Translation lengths of the evaluated class words under an action.

    The action maps generator symbols either to TreeIsometry values on a
    common tree or to Mat2 values over a common valued field; negative
    letters use inverses.  A tree length comes from two_point_length when
    it certifies one, and from classify() on the composed word otherwise.
    """
    if not action:
        raise DomainError("empty action")
    values = list(action.values())
    class_list = _as_classes(classes, set(action))
    if all(isinstance(v, TreeIsometry) for v in values):
        tree = values[0].tree
        for v in values:
            if v.tree is not tree:
                raise TreeMismatch("action isometries live on different trees")
        lengths = _class_values(
            class_list, tree.group.zero(), lambda word: _tree_length(action, word)
        )
        return ClassFunction.make(class_list, lengths)
    if all(isinstance(v, Mat2) for v in values):
        field = values[0].field
        for v in values:
            if v.field != field:
                raise FieldMismatch("action matrices live over different fields")
        lengths = _class_values(
            class_list, field.value_group.zero(),
            lambda word: sl2_translation_length(_matrix_word(action, word)),
        )
        return ClassFunction.make(class_list, lengths)
    raise DomainError("action values must all be TreeIsometry or all Mat2")


def projectivize(f: ClassFunction) -> ProjectivePoint:
    """Divide through the maximal value using archimedean ratios."""
    top = max(f.values)
    if top.is_zero():
        raise TrivialAction("all class lengths vanish")
    coords = tuple(ratio(v, top) for v in f.values)
    return ProjectivePoint.make(f.classes, coords, exact=True)


def _float_matrix(sym: str, value) -> Tuple[float, float, float, float]:
    try:
        a, b = value[0]
        c, d = value[1]
        entries = (float(a), float(b), float(c), float(d))
    except (TypeError, ValueError, IndexError, OverflowError):
        raise DomainError("a real matrix must be a 2x2 array of numbers")
    for i, x in enumerate(entries):
        if not math.isfinite(x):
            entry = f"[{i // 2}][{i % 2}]"
            raise DomainError(f'matrix of generator "{sym}": entry {entry} is {x}, not finite')
    return entries


def _float_word(rep: Dict[str, Tuple[float, float, float, float]], word: Word) -> Tuple[float, float, float, float]:
    acc = (1.0, 0.0, 0.0, 1.0)
    for sym, sign in word:
        a, b, c, d = rep[sym]
        if sign == -1:
            det = a * d - b * c
            if det == 0:
                raise DomainError("matrix is not invertible")
            a, b, c, d = d / det, -b / det, -c / det, a / det
        pa, pb, pc, pd = acc
        acc = (pa * a + pb * c, pa * b + pb * d, pc * a + pd * c, pc * b + pd * d)
    return acc


def theta(rep: dict, classes: Sequence) -> ProjectivePoint:
    """Normalized log-trace coordinates of a real matrix family."""
    if not rep:
        raise DomainError("empty representation")
    matrices = {sym: _float_matrix(sym, m) for sym, m in rep.items()}
    class_list = _as_classes(classes, set(matrices))
    raw = []
    for c in class_list:
        a, _, _, d = _float_word(matrices, c.word)
        tr = abs(a + d)
        if not math.isfinite(tr):
            raise DomainError(f'class "{c.text}": the trace of the word product is not finite')
        raw.append(math.log(tr) if tr > 1.0 else 0.0)
    top = max(raw)
    if top == 0.0:
        raise BoundedCharacter("every trace has absolute value at most one")
    coords = tuple(x / top for x in raw)
    return ProjectivePoint.make(class_list, coords, exact=False)


def mu(rep: Dict[str, Mat2], classes: Sequence) -> Tuple[ProjectivePoint, ClassFunction]:
    """Negated trace valuations of a matrix family, raw and projectivized.

    Raw values equal half the lattice-tree translation length of the
    evaluated matrix, so the projective point matches the one induced by
    the action on the lattice tree.
    """
    if not rep:
        raise DomainError("empty representation")
    matrices = dict(rep.items())
    field = next(iter(matrices.values())).field
    for m in matrices.values():
        if not isinstance(m, Mat2):
            raise DomainError("mu needs Mat2 values over a valued field")
        if m.field != field:
            raise FieldMismatch("representation matrices live over different fields")
    class_list = _as_classes(classes, set(matrices))
    group = field.value_group
    raw = []
    for c in class_list:
        v = field.valuation(_matrix_word(matrices, c.word).trace())
        if is_infinite(v) or v.sign() >= 0:
            raw.append(group.zero())
        else:
            raw.append(-v)
    f = ClassFunction.make(class_list, raw)
    if max(f.values).is_zero():
        raise NotSupportedAtInfinity("every trace has nonnegative valuation")
    return projectivize(f), f


def projective_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Sup-metric distance between two points over the same class list."""
    if [c.text for c in p.classes] != [c.text for c in q.classes]:
        raise ClassListMismatch("points list different conjugacy classes")
    return max(abs(float(a) - float(b)) for a, b in zip(p.coords, q.coords))


def _numeric_entry(x, s: Fraction) -> float:
    if isinstance(x, RationalFunction):
        den = x.den.evaluate(s)
        if den == 0:
            raise DomainError(f"parameter {s} is a pole of the family")
        return float(x.num.evaluate(s) / den)
    return float(x)


def _numeric_matrix(m: Mat2, s: Fraction):
    return (
        (_numeric_entry(m.a, s), _numeric_entry(m.b, s)),
        (_numeric_entry(m.c, s), _numeric_entry(m.d, s)),
    )


def converge_check(family: Dict[str, Mat2], parameters: Sequence, classes: Sequence,
                   tolerance: float = 1e-6, limit: Optional[ProjectivePoint] = None) -> dict:
    """Track theta along a parametrized family against a projective limit.

    Substitutes each parameter value into the symbolic family, computes
    theta, and records the projective distance to the limit (mu of the
    family when no limit is supplied).  A family whose traces all have
    nonnegative valuation does not degenerate; the report says so
    instead of raising.
    """
    params = [s if isinstance(s, Fraction) else bounded_fraction(str(s)) for s in parameters]
    if not params:
        raise DomainError("no parameter values supplied")
    if any(b <= a for a, b in zip(params, params[1:])):
        raise DomainError("parameter values must be strictly increasing")
    tolerance = float(tolerance)
    class_list = _as_classes(classes, set(family))
    if limit is None:
        try:
            limit, _ = mu(family, class_list)
        except NotSupportedAtInfinity:
            return {
                "k": [float(s) for s in params],
                "distance": [],
                "converged": False,
                "tolerance": tolerance,
                "note": "no degeneration: every trace valuation is nonnegative",
            }
    distances = []
    for s in params:
        rep = {sym: _numeric_matrix(m, s) for sym, m in family.items()}
        distances.append(projective_distance(theta(rep, class_list), limit))
    return {
        "k": [float(s) for s in params],
        "distance": distances,
        "converged": bool(distances and distances[-1] <= tolerance),
        "tolerance": tolerance,
    }


def converge_csv(report: dict) -> str:
    """CSV text of a convergence report, one row per parameter value."""
    lines = ["k,distance"]
    for k, d in zip(report["k"], report["distance"]):
        lines.append(f"{k},{d}")
    return "\n".join(lines) + "\n"


# Most vertices free_group_action builds (39,365 took 1.5 s and 64 MB on a
# 2-vCPU VM), and most words enumerate_classes grows; a larger count is
# refused before anything is built.
MAX_CAYLEY_VERTICES = 100_000


def _generators(generators: Sequence[str]) -> List[str]:
    syms = [check_symbol(s) for s in generators]
    if len(set(syms)) != len(syms) or not syms:
        raise SymbolError("generators must be distinct and nonempty")
    return syms


def _reduced_words(syms: Sequence[str], length: int) -> List[Word]:
    """Reduced words of length at most ``length`` over syms, breadth first:
    each level lists the extensions of the previous one's words in order."""
    letters = [(s, e) for s in syms for e in (1, -1)]
    words, level = [()], [()]
    for _ in range(length):
        level = [w + (x,) for w in level for x in letters if not w or w[-1] != (x[0], -x[1])]
        words.extend(level)
    return words


def _reduced_word_count(k: int, length: int) -> int:
    """Reduced words of length at most ``length`` over k generators: the
    vertex count of the radius-``length`` ball in the Cayley tree."""
    if k == 1:
        return 1 + 2 * length
    return 1 + 2 * k * ((2 * k - 1) ** length - 1) // (2 * k - 2)


def free_group_action(generators: Sequence[str], radius: int) -> Tuple[LambdaTree, Dict[str, TreeIsometry]]:
    """The ball of a free group's Cayley tree with its generator isometries.

    Vertices are reduced words (the identity is named "1"), edges have
    unit integer length, and each generator acts by left multiplication
    on the vertices whose image stays inside the ball.  The maps are
    restrictions of global tree isometries, so they are constructed
    trusted; distance preservation follows from word arithmetic.
    """
    syms = _generators(generators)
    if radius < 1:
        raise DomainError("radius must be at least 1")
    k = len(syms)
    size = _reduced_word_count(k, radius)
    if size > MAX_CAYLEY_VERTICES:
        raise DomainError(
            f"a radius-{radius} ball over {k} generators has {size} vertices,"
            f" more than {MAX_CAYLEY_VERTICES}"
        )
    group = LambdaGroup(1)
    unit = group.element(1)

    def name(w: Word) -> str:
        return format_word(w) if w else "1"

    words = _reduced_words(syms, radius)
    edges = [(name(w[:-1]), name(w), unit) for w in words[1:]]
    tree = LambdaTree(group, [name(w) for w in words], edges)
    action = {}
    for sym in syms:
        images = {}
        for w in words:
            gw = free_reduce(((sym, 1),) + w)
            if len(gw) <= radius:
                images[name(w)] = tree.vertex_point(name(gw))
        action[sym] = TreeIsometry(tree, images, _trusted=True)
    return tree, action
