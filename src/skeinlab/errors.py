"""Exception types shared across skeinlab."""


class SkeinlabError(Exception):
    pass


class ModeError(SkeinlabError):
    """Coefficient rings of the operands do not match."""


class Part1DomainError(SkeinlabError):
    """First-order extraction applied to a value with nonzero constant part."""


class LabelError(SkeinlabError):
    """Unknown simple label."""


class TruncationUnsupported(SkeinlabError):
    """Backend cannot be built at the requested truncation order."""


class CgError(SkeinlabError):
    """Missing or inconsistent Clebsch-Gordan data."""


class WordError(SkeinlabError):
    """Malformed tangle word or incompatible boundaries."""


class MoveError(SkeinlabError):
    """Move pattern does not match at the requested site."""


class FusionError(SkeinlabError):
    """Invalid fusion site."""


class AlgebraError(SkeinlabError):
    """Skein elements are incompatible (pattern, argument or backend)."""
