"""Semantic exception hierarchy shared across the package."""


class RenyinfoError(Exception):
    """Base class for all package-specific errors."""


class NegativeMass(RenyinfoError):
    """A probability entry is strictly negative."""


class NotNormalized(RenyinfoError):
    """Total mass deviates from 1 beyond the input tolerance.

    The message reports the deviation; we reject rather than silently
    renormalize so user errors stay visible.
    """


class DuplicateLabel(RenyinfoError):
    """Alphabet labels are not pairwise distinct."""


class SizeOverflow(RenyinfoError):
    """A product construction would exceed the configured cell cap."""


class AlphabetMismatch(RenyinfoError):
    """Two distributions that must share an alphabet do not."""


class UndefinedCorner(RenyinfoError):
    """An order pair whose value the theory leaves undefined was requested."""


class DimensionCap(RenyinfoError):
    """The descent fallback would run on more cells than the configured cap."""


class NonFiniteObjectiveEverywhere(RenyinfoError):
    """No descent start produced a finite objective value."""


class EnumerationCap(RenyinfoError):
    """An exhaustive enumeration would exceed the configured cap."""


class DomainMismatch(RenyinfoError):
    """A hash table does not cover the distribution's alphabet."""


class NonPowerOfTwoAlphabet(RenyinfoError):
    """The bit-affine hash family needs power-of-two alphabet sizes."""


class BetaOutOfFamilyRange(RenyinfoError):
    """Requested divergence order lies outside the hash family's guarantee."""
