"""Exception hierarchy, and the caps on work.

DomainError subclasses map to CLI exit code 1, MalformedInput and
OutOfBudget to exit code 2, and CheckFailed, a broken internal invariant, to
exit code 3.

Each input that sizes the work of a request has a cap, declared below and
nowhere else, and `within` is the one check against it: one comparison, made
before the work it sizes.  Past the cap the request exits 2.  One row per check:

    input                                  cap                           kind
    primes --bound                         MAX_PRIME_BOUND               malformed-input
    tensor experiment --bound              MAX_EXPERIMENT_SAMPLES        malformed-input
    tensor --witness-bound                 MAX_WITNESS_BOUND             malformed-input
    "bound" of an adele section            MAX_PRIME_BOUND               malformed-input
    "p" of a named prime: a fresh p costs  MAX_NAMED_PRIME               malformed-input
      a range(p) scan, 1.5 to 2 s at the cap
    the sum of the distinct named "p" of   MAX_NAMED_PRIME               malformed-input
      one vector, module or section
    sum of |e|*bits(p) of an input vector  MAX_VECTOR_BITS               malformed-input
    "pairs" of a tensor in a request,      MAX_TENSOR_PAIRS              out-of-budget
      before any envelope is built
    adele vector: a prime factor of        MAX_NAMED_PRIME               out-of-budget
      norm(num)*den of delta/generator
    adele vector: the sum of those primes  MAX_NAMED_PRIME               out-of-budget
    member/stalk search norm bound         MAX_MEMBERSHIP_NORM           out-of-budget
    member/stalk search reached polygons   MAX_MEMBERSHIP_NODES          out-of-budget
    tensor reduce: pairs that the witness  MAX_WITNESS_PAIRS             out-of-budget
      search's products cross, summed
    tensor: raw pairs of one normal form,  MAX_TENSOR_PAIRS              out-of-budget
      a product's cross before it is built
    digits of an integer in the answer     sys.get_int_max_str_digits()  out-of-budget
      (checked by cli._emit)

The membership caps hold for d not in {1, 3}, where membership is a
breadth-first search.  The time is Python 3.11's on a shared 2-core machine.
"""

MAX_PRIME_BOUND = 10_000  # primes_upto sieves to it; section_violation trial-divides below it
MAX_EXPERIMENT_SAMPLES = 1_000
MAX_WITNESS_BOUND = 16
MAX_NAMED_PRIME = 10**7
# a vector's generator has about this many bits, so an iso witness of two
# vectors stays under 2500 digits, below the int-to-str limit
MAX_VECTOR_BITS = 4096
MAX_MEMBERSHIP_NORM = 400
MAX_MEMBERSHIP_NODES = 2_000
MAX_WITNESS_PAIRS = 5_000
MAX_TENSOR_PAIRS = 5_000  # not below MAX_WITNESS_PAIRS: the witness search meets its own cap first


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


def within(value: int, cap: int, kind: type[TropigonError], text: str) -> int:
    """value, or raise kind(text) when it is over cap; text may name {value} and {cap}."""
    if value > cap:
        raise kind(text.format(value=value, cap=cap))
    return value
