"""Exact scalar fields: the rationals and prime fields GF(p).

Scalars are plain canonical Python values (``fractions.Fraction`` for the
rationals, ``int`` residues in ``range(p)`` for GF(p)).  A :class:`Field`
object supplies the arithmetic and canonicalization for one such scalar
type; matrices carry a field reference, and their elimination and
arithmetic specialise on it.  Keeping scalars unwrapped keeps those loops
cheap and makes equality structural for free.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")

# Deterministic Miller-Rabin witness set, sufficient for all p < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_PRIME = 2**63 - 1


class FieldMismatchError(ValueError):
    """Raised when operands belong to different fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Arithmetic context for one scalar representation.

    Concrete fields are value objects: two field instances compare equal
    iff they describe the same field, and every scalar handed to the
    arithmetic methods is assumed canonical (as produced by :meth:`canon`
    or :meth:`parse`).
    """

    name: str

    def canon(self, value: object) -> Scalar:
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, value: Scalar) -> str:
        raise NotImplementedError

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def inverse(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    @property
    def zero(self) -> Scalar:
        raise NotImplementedError

    @property
    def one(self) -> Scalar:
        raise NotImplementedError

    def is_zero(self, a: Scalar) -> bool:
        return a == self.zero

    def elements(self) -> Iterable[Scalar]:
        """All field elements, for finite fields only."""
        raise ValueError(f"field {self.name} is not finite")

    def __repr__(self) -> str:
        return self.name


class RationalField(Field):
    """The field of rational numbers, scalars are ``Fraction``."""

    name = "rational"

    _ZERO = Fraction(0)
    _ONE = Fraction(1)

    def canon(self, value: object) -> Fraction:
        if isinstance(value, bool) or isinstance(value, float):
            raise TypeError(f"refusing inexact or boolean scalar {value!r}")
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into {self.name}")

    def parse(self, text: str) -> Fraction:
        if not _RATIONAL_RE.match(text.strip()):
            raise ValueError(f"malformed rational literal {text!r}")
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational literal {text!r}") from None

    def format(self, value: Fraction) -> str:
        return str(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inverse(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    @property
    def zero(self) -> Fraction:
        return self._ZERO

    @property
    def one(self) -> Fraction:
        return self._ONE

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash(self.name)


class PrimeField(Field):
    """GF(p) for a prime p, scalars are ``int`` residues in ``range(p)``."""

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError("modulus must be an int")
        if p > MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds the supported bound 2**63 - 1")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"gf({p})"

    def canon(self, value: object) -> int:
        if isinstance(value, bool) or isinstance(value, float):
            raise TypeError(f"refusing inexact or boolean scalar {value!r}")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise TypeError(f"non-integral rational {value} has no canonical residue")
            value = value.numerator
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot coerce {type(value).__name__} into {self.name}")

    def parse(self, text: str) -> int:
        if not _INTEGER_RE.match(text.strip()):
            raise ValueError(f"malformed {self.name} literal {text!r}")
        return int(text.strip()) % self.p

    def format(self, value: int) -> str:
        return str(value)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inverse(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def elements(self) -> range:
        return range(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash((PrimeField, self.p))


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the shared ``PrimeField`` instance for the prime ``p``."""
    field = _GF_CACHE.get(p)
    if field is None:
        field = PrimeField(p)
        _GF_CACHE[p] = field
    return field


def field_from_name(name: str) -> Field:
    """Parse a field descriptor: ``"rational"`` or ``"gf(p)"``."""
    text = name.strip().lower()
    if text == "rational":
        return QQ
    match = re.fullmatch(r"gf\((\d+)\)", text)
    if match:
        return GF(int(match.group(1)))
    raise ValueError(f"unknown field descriptor {name!r}")


def require_same_field(*fields: Field) -> Field:
    first = fields[0]
    for other in fields[1:]:
        # GF() and QQ are shared instances, so identity settles nearly every call.
        if other is not first and other != first:
            raise FieldMismatchError(f"mixed fields {first} and {other}")
    return first
