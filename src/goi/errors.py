"""Exception hierarchy for the engine."""

from __future__ import annotations


class GoiError(Exception):
    """Base class for all engine errors."""


class CarrierError(GoiError):
    """Carrier labels do not match the operation's requirements."""


class NumericError(GoiError):
    """A numeric routine failed to converge or produced garbage."""


class DisjointnessError(GoiError):
    """Sum of partial injections would clash on a domain or range index."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class NotNilpotentError(GoiError):
    """Execution was requested for a non-nilpotent product."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class FeedbackSingularError(GoiError):
    """1 - uv is singular; the explicit feedback solution does not exist."""


class NotOrthogonalError(GoiError):
    """Spectral gate failed: the product has spectral radius >= 1."""


class IndeterminateError(GoiError):
    """A spectral certificate straddles 1; no classification was made."""


class UnsupportedRuleError(GoiError):
    """Proof uses a rule outside the backend's fragment."""


class MissingVariableError(GoiError):
    """Interpretation basis does not cover a variable."""


class ProofSyntaxError(GoiError):
    """Malformed proof or formula text."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class RuleApplicationError(GoiError):
    """A sequent rule is applied to premises it does not fit."""

    def __init__(self, message: str, rule: str = "", path: tuple = ()):
        super().__init__(message)
        self.rule = rule
        self.path = path
