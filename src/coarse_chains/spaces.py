"""Discrete model spaces: integer lattices with the sup metric.

All ambient geometry in this package happens on Z^n with the l-infinity
metric, so every distance is an integer and every comparison is exact.
Enumeration always happens inside an explicit finite window.
"""

from __future__ import annotations

from dataclasses import dataclass

Point = tuple[int, ...]


def json_int(value, what: str) -> int:
    """An integer field of JSON input; booleans, floats and strings are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class LatticeSpace:
    """The lattice Z^dim with the sup metric.

    dim == 0 is allowed as the degenerate single-point lattice; it occurs
    as the target of codimension-n projections.
    """

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"lattice dimension must be >= 0, got {self.dim}")

    def check_point(self, p: Point) -> Point:
        if len(p) != self.dim or not all(type(c) is int for c in p):
            raise ValueError(f"not a point of Z^{self.dim}: {p!r}")
        return p

    def distance(self, p: Point, q: Point) -> int:
        if len(p) != self.dim or len(q) != self.dim:
            raise ValueError("points of wrong dimension")
        return max((abs(a - b) for a, b in zip(p, q)), default=0)

    def to_json(self) -> dict:
        return {"kind": "lattice", "dim": self.dim}

    @classmethod
    def from_json(cls, data: dict) -> "LatticeSpace":
        if data.get("kind") != "lattice":
            raise ValueError(f"unknown space kind: {data.get('kind')!r}")
        return cls(json_int(data["dim"], "lattice dimension"))


@dataclass(frozen=True)
class Window:
    """Finite axis-aligned box {p : lo <= p <= hi componentwise}."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("window bounds of different dimension")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty window: lo={self.lo}, hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, p: Point) -> bool:
        return all(a <= c <= b for a, c, b in zip(self.lo, p, self.hi))

    def to_json(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_json(cls, data: dict) -> "Window":
        return cls(tuple(json_int(c, "window bound") for c in data["lo"]),
                   tuple(json_int(c, "window bound") for c in data["hi"]))

    @classmethod
    def cube(cls, dim: int, radius: int) -> "Window":
        return cls((-radius,) * dim, (radius,) * dim)
