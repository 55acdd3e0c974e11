"""Exception hierarchy for the apa package."""

from __future__ import annotations


class ApaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationIssue(ApaError):
    """A single problem found while validating a framework description.

    Carries the offending token and, when known, the source line it came
    from. Issues are collected and reported together via ValidationError.
    """

    def __init__(self, token: str, line: int | None = None):
        self.token = token
        self.line = line
        super().__init__(str(self))

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{type(self).__name__}: {self.token}{where}"


class UndeclaredArgument(ValidationIssue):
    """An attack, persuasion act or initial set references an unknown id."""


class DuplicateArgument(ValidationIssue):
    """The same argument id is declared more than once."""


class BadArgumentName(ValidationIssue):
    """A declared argument id does not match `model.NAME`."""


class BadInitial(ValidationIssue):
    """The initial set contains a token that is not a declared argument."""


class ValidationError(ApaError):
    """Aggregate of every validation issue found in one description."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        super().__init__("\n".join(str(i) for i in issues))


class TooLarge(ApaError):
    """An enumeration bound was exceeded (see the --max-states and
    --max-args CLI options)."""


class QuerySyntaxError(ApaError):
    """Malformed query or framework text; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} at line {line}, column {column}")


class UnknownName(ApaError):
    """A query token or state member does not resolve to a declared
    argument or set; the message names the unresolved tokens. The CLI
    checks its own `--sigma` and `--state` names and words those errors
    itself."""


class UnknownSelector(ApaError):
    """A temporal superscript names a set that was never declared."""
