"""Exception types shared across the package.

One class per failure category so that callers can distinguish them
without string matching.  Each class carries the exit code the CLI
returns for it: 2 parse error, 3 precondition or structure error (the
default), 4 size-limit guard, 5 verification violation, 6
numerical-consistency error.
"""


class PfmatchError(Exception):
    """Base class for everything raised deliberately by this package."""

    exit_code = 3


class InvalidSizeError(PfmatchError, ValueError):
    """A size parameter is outside its legal range (e.g. a 0-vertex path)."""


class NotATreeError(PfmatchError, ValueError):
    """A graph required to be a tree is disconnected or contains a cycle."""


class SizeLimitError(PfmatchError):
    """A costly step (exponential, O(n^3) or a large grid) was asked to run above its guard."""

    exit_code = 4


class PreconditionError(PfmatchError, ValueError):
    """An operation's precondition does not hold for the input (a non-square
    matrix, a non-monic divisor, arcs that do not orient their graph)."""


class NotPfaffianError(PfmatchError):
    """A skew adjacency determinant reconstructed by abs_pfaffian was not a perfect square.

    No skew integer matrix has such a determinant (det = Pf^2), so this
    means its modular reconstruction failed.  The Pfaffian check's
    verdict shares the exit code; a count through a non-Pfaffian
    orientation raises nothing and shows up as an undercount instead.
    """

    exit_code = 5


class NotSquarishError(PfmatchError, ArithmeticError):
    """An integer is neither a perfect square nor twice one."""

    exit_code = 5


class NumericalConsistencyError(PfmatchError):
    """A floating-point evaluation strayed too far from the exact value."""

    exit_code = 6


class EdgeListParseError(PfmatchError, ValueError):
    """Malformed edge-list text (bad header, bad line, index out of range)."""

    exit_code = 2
