"""Exception types shared across the package."""


class FcnError(Exception):
    """Base class for all errors raised by this package."""


class _Positioned(FcnError):
    """An error that prefixes its message with its line and column."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        loc = f"line {line}:{column}: " if line is not None else ""
        super().__init__(f"{loc}{message}")


class ParseError(_Positioned):
    pass


class UnknownName(_Positioned):
    pass


class UnknownCell(FcnError):
    pass


class CompositionMismatch(FcnError):
    def __init__(self, expected, found):
        self.expected = expected
        self.found = found
        super().__init__(f"composition mismatch: expected {expected}, found {found}")


class IllTypedValue(FcnError):
    pass


class NotEnumerable(FcnError):
    pass


class BoundaryMismatch(_Positioned):
    def __init__(self, site, expected, found, line=None, column=None):
        self.site = site
        self.expected = expected
        self.found = found
        message = f"boundary mismatch at {site}: expected {expected}, found {found}"
        super().__init__(message, line, column)


class IllTypedSubterm(FcnError):
    pass


class InfiniteRecvCarrier(FcnError):
    pass


class ScriptUnderrun(FcnError):
    pass


class ScriptOverrun(FcnError):
    pass


class WrongMove(FcnError):
    def __init__(self, expected_kind, got):
        self.expected_kind = expected_kind
        self.got = got
        super().__init__(f"wrong script move: expected {expected_kind}, got {got}")
