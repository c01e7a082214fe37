"""Normed coefficient groups for chains: Z, Z/2 and Q.

Elements are plain Python values (int for Z and Z/2, Fraction for Q) and
every operation is exact.  The norm maps into the non-negative rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

Element = Any  # int for Z and Z/2, Fraction for Q


class GroupMismatch(ValueError):
    """Raised when elements of different coefficient groups are combined."""


@dataclass(frozen=True)
class CoefficientGroup:
    """One of the three supported normed abelian groups.

    name is "Z", "Z/2" or "Q"; it doubles as the JSON tag.
    """

    name: str

    def coerce(self, value: Any) -> Element:
        if isinstance(value, bool):
            raise GroupMismatch(f"a boolean is not a coefficient: {value!r}")
        if self.name == "Z":
            if isinstance(value, int):
                return value
            raise GroupMismatch(f"not an integer: {value!r}")
        if self.name == "Z/2":
            if isinstance(value, int):
                return value % 2
            raise GroupMismatch(f"not a mod-2 value: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise GroupMismatch(f"not a rational: {value!r}")

    @property
    def zero(self) -> Element:
        return Fraction(0) if self.name == "Q" else 0

    def is_zero(self, a: Element) -> bool:
        return a == 0

    def add(self, a: Element, b: Element) -> Element:
        s = a + b
        return s % 2 if self.name == "Z/2" else s

    def neg(self, a: Element) -> Element:
        return a if self.name == "Z/2" else -a

    def scale(self, m: int, a: Element) -> Element:
        """Integer multiple m*a; used for boundary signs and Thom values.

        m = +-1 returns a or -a with no multiplication, which over Q saves a
        Fraction product and its gcd.
        """
        if self.name == "Z/2":
            return (m * a) % 2
        return a if m == 1 else -a if m == -1 else m * a

    def norm(self, a: Element) -> Fraction:
        return Fraction(abs(a))

    def to_json(self, a: Element) -> Any:
        if self.name == "Q":
            f = Fraction(a)
            return f"{f.numerator}/{f.denominator}"
        return int(a)

    def from_json(self, value: Any) -> Element:
        """Decode outside input: an integer, or "num/den" / "num" over Q."""
        if self.name == "Q" and isinstance(value, str):
            num, _, den = value.partition("/")
            try:
                return Fraction(int(num), int(den) if den else 1)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        return self.coerce(value)


INTEGERS = CoefficientGroup("Z")
INTEGERS_MOD_2 = CoefficientGroup("Z/2")
RATIONALS = CoefficientGroup("Q")

_BY_NAME = {"Z": INTEGERS, "Z/2": INTEGERS_MOD_2, "Q": RATIONALS}


def group_by_name(name: str) -> CoefficientGroup:
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown coefficient group {name!r}") from None
