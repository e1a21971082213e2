"""Exception hierarchy.

DomainError subclasses map to CLI exit code 1, MalformedInput and
OutOfBudget to exit code 2, and CheckFailed, a broken internal invariant, to
exit code 3.
"""


class TropigonError(Exception):
    pass


class DomainError(TropigonError):
    pass


class FieldMismatch(DomainError):
    pass


class ZeroInput(DomainError):
    pass


class BothZero(DomainError):
    pass


class DivByZero(DomainError):
    pass


class NotProper(DomainError):
    pass


class NotLattice(DomainError):
    pass


class WrongField(DomainError):
    pass


class ZeroModule(DomainError):
    pass


class OutOfDomain(DomainError):
    pass


class InvalidSection(DomainError):
    def __init__(self, prime, message=""):
        self.prime = prime
        super().__init__(message or f"section invalid at prime over {getattr(prime, 'p', prime)}")


class MalformedInput(TropigonError):
    pass


class OutOfBudget(TropigonError):
    """A search that would pass one of its fixed caps."""


class CheckFailed(TropigonError):
    pass


def check(cond, msg=None) -> None:
    """Raise CheckFailed(msg) unless cond: an `assert` that `python -O` keeps."""
    if not cond:
        raise CheckFailed() if msg is None else CheckFailed(msg)
