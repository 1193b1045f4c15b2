"""Exception types shared across the package, and its one JSON list guard.

Every error raised by library code derives from LambdaTreeError, and the
class name doubles as the machine-readable error code emitted by the CLI.
"""


class LambdaTreeError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DomainError(LambdaTreeError):
    """An argument is outside the domain of the operation."""


class GroupMismatch(LambdaTreeError):
    """Operands belong to different ordered abelian groups."""


class UndefinedRatio(LambdaTreeError):
    """Ratio of two zero group elements."""


class NotInValuationRing(LambdaTreeError):
    """Residue of an element with negative valuation."""


class InvalidPoint(LambdaTreeError):
    """A point reference does not name a point of the tree."""


class EmbeddingError(LambdaTreeError):
    """No built-in order embedding between the given groups."""


class TreeMismatch(LambdaTreeError):
    """Operands are defined over different trees."""


class NotAnIsometry(LambdaTreeError):
    """A vertex map does not preserve distances."""


class OrbitEscapesTree(LambdaTreeError):
    """The finite tree window is too small to apply or classify the map."""


class SingularLattice(LambdaTreeError):
    """A basis matrix with zero determinant does not span a lattice."""


class FieldMismatch(LambdaTreeError):
    """Operands belong to different valued fields."""


class DeterminantNotOne(LambdaTreeError):
    """A matrix expected in SL2 has determinant different from one."""


class InfiniteResidueField(LambdaTreeError):
    """Neighbor enumeration needs a finite residue field."""


class NotConnected(LambdaTreeError):
    """The underlying graph is not connected."""


class InvalidEdge(LambdaTreeError):
    """An edge reference does not name an edge."""


class NotTransitive(LambdaTreeError):
    """The coset action is not transitive."""


class SymbolError(LambdaTreeError):
    """A word uses a symbol that is not a declared generator."""


class TrivialAction(LambdaTreeError):
    """All lengths vanish, so no projective class exists."""


class BoundedCharacter(LambdaTreeError):
    """All trace coordinates vanish, so no projective class exists."""


class NotSupportedAtInfinity(LambdaTreeError):
    """Every trace has nonnegative valuation."""


class ClassListMismatch(LambdaTreeError):
    """Two projective points list different conjugacy classes."""


def _not_text(value, what: str):
    """value, refused when it is a string, which would iterate by character."""
    if isinstance(value, str):
        raise TypeError(f"{what} must be a list, not a string")
    return value
