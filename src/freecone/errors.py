"""Exception types shared across the package.

Everything raised on bad mathematical input derives from MatroidError so
callers can catch one base class.  ParseError and ValidationError cover the
document layer (JSON in, JSON out).
"""

from __future__ import annotations


class MatroidError(Exception):
    """Base class for all input errors raised by this package."""


class AxiomViolation(MatroidError):
    """A proposed family of cyclic flats fails one of the lattice axioms.

    Attributes:
        axiom: short identifier of the failed axiom, e.g. "Z2".
        witness: tuple of the offending sets (as frozensets of element ids).
    """

    def __init__(self, axiom: str, witness: tuple, message: str = ""):
        self.axiom = axiom
        self.witness = witness
        super().__init__(message or f"axiom {axiom} violated by {witness!r}")


class NotABasisSystem(MatroidError):
    """A proposed basis collection fails the exchange property."""


class GroundSetTooLarge(MatroidError):
    """An operation would enumerate more subsets or elements than allowed."""


class SourceHasLoops(MatroidError):
    """Cone construction was handed a matroid with loops."""


class MalformedCatenary(MatroidError):
    """Catenary data whose keys are not compositions of the right shape."""


class MalformedSrc(MatroidError):
    """Size/rank/coloop data that cannot come from a matroid of the stated size."""


class InconsistentSystem(MatroidError):
    """The linear system tying a G-invariant to src data has no integral solution."""


class NotAConeConfiguration(MatroidError):
    """A configuration that cannot be the configuration of any cone of the
    requested kind and parameter."""


class ParseError(MatroidError):
    """A document is not valid JSON or not valid against the expected shape.

    Attributes carry line/column when the underlying JSON decoder provides
    them, else zeros.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(message)


class ValidationError(MatroidError):
    """A well-formed document with contents that fail semantic checks."""
