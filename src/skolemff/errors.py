"""Exception hierarchy shared by all skolemff modules.

Every error raised on purpose derives from SkolemffError so the CLI can map
failures to its exit-code contract (2 = invalid input, 3 = inconclusive /
resource limits, 1 = theorem violation).
"""


class SkolemffError(Exception):
    """Base class for all library errors."""


class InvalidInstance(SkolemffError):
    """An instance file or in-memory instance violates a declared invariant."""


class ZeroInput(SkolemffError):
    """An operation received the zero function/polynomial where nonzero is required."""


class ConstantInput(SkolemffError):
    """An operation requires a nonconstant function."""


class FieldTooSmall(SkolemffError):
    """The declared constant field does not contain a required root of unity."""


class NotSInteger(SkolemffError):
    """A function has a pole outside S where an S-integer is required."""


class NotSUnit(SkolemffError):
    """A function has a zero or pole outside S where an S-unit is required."""


class MultiplicativelyDependent(SkolemffError):
    """A pair required to be multiplicatively independent is not."""


class UnsupportedConstantPair(SkolemffError):
    """Dependence of two non-torsion irrational cyclotomic constants is out of scope."""


class BadChiS(SkolemffError):
    """chi_S < 0 where the gcd bound needs chi_S >= 0."""


class QEqualsOne(SkolemffError):
    """choose_q derived q = 1 although the global-zero case was excluded."""


class CharPUnsupported(SkolemffError):
    """The certification pipeline requires characteristic 0."""


class FactorizationTooHard(SkolemffError):
    """A factorization exceeded the configured degree/effort caps."""


class PreconditionGlobalZeroExists(SkolemffError):
    """A lemma check ran although the instance has a global zero."""
