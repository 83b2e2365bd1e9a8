"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`TipTreeError`, so
callers (the CLI in particular) can distinguish domain failures from bugs.
"""


class TipTreeError(Exception):
    """Base class for all errors raised by this package."""


# --- text parsing -----------------------------------------------------------

class EmptyInputError(TipTreeError):
    """The input string contains no tree at all."""


class UnbalancedParensError(TipTreeError):
    """The parenthesis word is not a single well-formed tree."""


class IllegalCharacterError(TipTreeError):
    """The parenthesis word contains a character other than '(' or ')'."""


class LabelSyntaxError(TipTreeError):
    """The labelled-tree or match-set text does not follow the grammar."""


class DuplicateLabelError(TipTreeError):
    """Two vertices of one labelled tree carry the same label."""


# --- domain preconditions ---------------------------------------------------

class NotALeafError(TipTreeError):
    """A leaf-only operation was applied to an interior vertex."""


class IsRootError(TipTreeError):
    """A leaf-only operation was applied to the root."""


class TrivialTreeError(TipTreeError):
    """The operation needs at least one edge but got a single vertex."""


class NotTipAugmentedError(TipTreeError):
    """The operation is defined on tip-augmented plane trees only."""


class TooSmallError(TipTreeError):
    """The operation needs at least two edges."""


class InvalidMatchSetError(TipTreeError):
    """The match set violates the label-universe invariants."""


class BadLabelDomainError(TipTreeError):
    """The tree's labels are not exactly {1..n+1}, unmarked."""


class NoPreimageError(TipTreeError):
    """The decomposition replay found no vertex ready for the next mark.

    Every labelled plane tree on {1..n+1} has exactly one preimage, so this
    error always signals an implementation bug rather than bad input.
    """
