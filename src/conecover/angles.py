"""Exact cone-angle arithmetic and the admissibility decision.

Angles are measured in turns: an entry of 1 is a smooth point (cone angle
2*pi), 1/2 is a cone of angle pi, 3/2 a cone of angle 3*pi.  Outputs are
exact `fractions.Fraction` values; inputs may also be ints or strings
that `parse_fraction` reads, but floats are rejected outright.  The rules
themselves run once, in `decide_scaled`, on `int` numerators over a
common denominator, so every comparison is exact.
`decide_admissible` and `l1_distance_to_odd_lattice` scale their input
and wrap the answer.  The checks up to the odd-lattice distance live in
`screen_scaled`, on terms that add over a concatenation of vectors, so
the certificate search can screen a lifted vector from per-row sums;
the rules at distance exactly 1 live in `boundary_scaled`, which the
search calls directly once those sums have given the distance.

A vector of cone angles admits a spherical cone metric on the sphere
exactly when, after discarding unit entries, one of these holds for the
remaining vector beta of length n:

  EMPTY  nothing is left (the smooth round sphere);
  A      the l1 distance from beta - (1,...,1) to the odd integer
         lattice of Z^n exceeds 1;
  B      n = 2 and the two entries are equal and non-integral;
  C      the distance equals 1, every entry is a positive integer, and
         2*max(beta_i - 1) <= sum(beta_i - 1);
  D      the distance equals 1, the entries mix integers and
         non-integers, and the coaxial sign conditions below have a
         solution.

A single leftover entry never works (a teardrop, or an integer angle
forcing an impossible one-point cover), a non-positive Gauss-Bonnet
margin 2 + sum(beta_i - 1) kills everything, a distance below 1
violates the holonomy constraint, and at distance exactly 1 an
all-non-integral vector of length >= 3 is likewise impossible.

The coaxial conditions for case D: write the non-integral entries first,
beta_1..beta_m, and the integral ones beta_{m+1}..beta_n.  A witness is a
choice of signs eps_i in {+1,-1} with

  k'  = sum(eps_i * beta_i) over i <= m   a non-negative integer,
  k'' = sum(beta_i) over i > m  - n - k' + 2   non-negative and even,

such that, scaling (beta_1,...,beta_m, 1,...,1) with k'+k'' trailing ones
by the inverse of its rational gcd eta into coprime positive integers
b_1..b_{m+k'+k''}, the inequality 2*max(beta_{m+1..n}) <= sum(b_i) holds.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .branch_data import read_decimal, require_int

CASE_EMPTY = "EMPTY"
CASE_A = "A"
CASE_B = "B"
CASE_C = "C"
CASE_D = "D"
CASE_NONE = "NONE"


class AngleParseError(ValueError):
    """Raised on malformed angle text or JSON, and on non-positive angles."""


def _as_rationals(values: Iterable) -> tuple[Fraction, ...]:
    out = []
    for v in values:
        if isinstance(v, float):
            raise TypeError(f"floating-point value {v!r}: exact rationals only")
        out.append(v if isinstance(v, Fraction) else parse_fraction(v))
    return tuple(out)


def as_angles(values: Iterable) -> tuple[Fraction, ...]:
    """Coerce to a tuple of positive Fractions, rejecting floats."""
    vals = _as_rationals(values)
    for v in vals:
        if v <= 0:
            raise AngleParseError(f"cone angles must be positive, got {v}")
    return vals


def scaled_numerators(vals: Iterable[Fraction], scale: int) -> list[int]:
    """The numerators of `vals` over their common denominator `scale`."""
    return [v.numerator * (scale // v.denominator) for v in vals]


@dataclass(frozen=True)
class OddLatticeResult:
    """Distance to the nearest odd-sum integer vector, and one such vector."""

    distance: Fraction
    nearest: tuple[int, ...]

    def to_json(self) -> dict:
        return {"distance": str(self.distance), "nearest": list(self.nearest)}


@dataclass(frozen=True)
class CoaxialWitness:
    """A sign assignment satisfying the case-D coaxial conditions.

    `signs` pairs with the non-integral entries in their order of
    appearance; `eta` is the rational gcd of those entries together with
    k'+k'' ones, and `b` the resulting coprime integer vector.
    """

    signs: tuple[int, ...]
    k_prime: int
    k_double_prime: int
    eta: Fraction
    b: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "signs": list(self.signs),
            "k_prime": self.k_prime,
            "k_double_prime": self.k_double_prime,
            "eta": str(self.eta),
            "b": list(self.b),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CoaxialWitness":
        return cls(
            signs=tuple(require_int(s, "each sign") for s in obj["signs"]),
            k_prime=require_int(obj["k_prime"], "'k_prime'"),
            k_double_prime=require_int(obj["k_double_prime"], "'k_double_prime'"),
            eta=parse_fraction(obj["eta"]),
            b=tuple(require_int(x, "each entry of 'b'") for x in obj["b"]),
        )


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of `decide_admissible` with the evidence that produced it."""

    admissible: bool
    case: str
    lattice: OddLatticeResult | None = None
    coaxial: CoaxialWitness | None = None
    reason: str | None = None

    def __post_init__(self):
        if not isinstance(self.admissible, bool):
            raise ValueError(f"'admissible' must be true or false, got {self.admissible!r}")
        if not isinstance(self.case, str):
            raise TypeError(f"'case' must be a string, got {self.case!r}")
        if not isinstance(self.reason, (str, type(None))):
            raise TypeError(f"'reason' must be a string or null, got {self.reason!r}")
        if self.case not in (CASE_EMPTY, CASE_A, CASE_B, CASE_C, CASE_D, CASE_NONE):
            raise ValueError(f"unknown case {self.case!r}")
        if self.admissible != (self.case != CASE_NONE):
            raise ValueError(f"case {self.case} contradicts admissible={self.admissible}")

    def to_json(self) -> dict:
        out: dict = {"admissible": self.admissible, "case": self.case}
        if self.lattice is not None:
            out.update(self.lattice.to_json())
        if self.coaxial is not None:
            out["coaxial_witness"] = self.coaxial.to_json()
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "AdmissibilityVerdict":
        lattice = None
        if "distance" in obj:
            lattice = OddLatticeResult(
                distance=parse_fraction(obj["distance"]),
                nearest=tuple(require_int(z, "each entry of 'nearest'")
                              for z in obj["nearest"]),
            )
        coaxial = None
        if "coaxial_witness" in obj:
            coaxial = CoaxialWitness.from_json(obj["coaxial_witness"])
        return cls(
            admissible=obj["admissible"],
            case=obj["case"],
            lattice=lattice,
            coaxial=coaxial,
            reason=obj.get("reason"),
        )


def l1_distance_to_odd_lattice(x: Iterable) -> OddLatticeResult:
    """l1 distance from a rational vector to the odd-sum integer lattice.

    Round every coordinate to a nearest integer; if the rounded sum is
    already odd that is optimal, otherwise move the single coordinate
    whose parity flip is cheapest (cost 1 - 2f for fractional distance f)
    to its second-nearest integer.  A coordinate sitting exactly between
    two integers flips for free.  Ties break toward the floor and then
    toward the lowest index, so the reported vector is deterministic.
    """
    vals = _as_rationals(x)
    if not vals:
        raise ValueError("need at least one coordinate")
    scale = math.lcm(*(v.denominator for v in vals))
    nearest, cost, parity, flip = round_scaled(scaled_numerators(vals, scale), scale)
    distance = cost if parity else cost + flip
    return OddLatticeResult(Fraction(distance, scale), tuple(nearest))


def round_scaled(x: Sequence[int], scale: int) -> tuple[list[int], int, int, int]:
    """Round `x / scale` to a nearest odd-sum integer vector.

    Returns (nearest, cost, parity, flip).  Each x_i rounds to q_i, ties
    toward the floor, at cost min(r, scale - r) for r = x_i mod scale;
    cost sums these and parity is sum(q) mod 2.  flip, scale - 2 * cost_i
    at its least (`scale` for an empty x), is the cheapest change of that
    parity; when it is even, nearest makes it at the lowest such index.
    Over a concatenation of vectors cost and parity add, flip takes the
    minimum.
    """
    nearest = []
    total = 0
    flip = scale
    at = 0
    for i, v in enumerate(x):
        q, r = divmod(v, scale)
        if 2 * r <= scale:
            cost = r
        else:
            cost = scale - r
            q += 1
        nearest.append(q)
        total += cost
        if scale - 2 * cost < flip:
            flip = scale - 2 * cost
            at = i
    parity = sum(nearest) % 2
    if not parity and nearest:
        nearest[at] += 1 if 2 * (x[at] % scale) <= scale else -1
    return nearest, total, parity, flip


def coaxial_check(beta: Sequence[Fraction]) -> CoaxialWitness | None:
    """Search sign assignments for the case-D coaxial conditions.

    Expects a unit-free vector mixing integral and non-integral entries
    whose shifted distance to the odd lattice is 1 (the caller checks the
    distance).  Signs are tried with +1 before -1 in lexicographic order,
    so the first witness found is deterministic.
    """
    vals = as_angles(beta)
    nonint = [b for b in vals if b.denominator != 1]
    ints = [b for b in vals if b.denominator == 1]
    if not nonint or not ints:
        raise ValueError("need both integral and non-integral entries")
    n = len(vals)
    int_sum = sum(b.numerator for b in ints)
    int_max = max(b.numerator for b in ints)
    # The rational gcd eta of the non-integral entries and k'+k'' ones is
    # g / lcd: lcd the lcm of the denominators, g the gcd of the numerators,
    # or 1 once a one is present.  b holds each entry times lcd / g.
    lcd = math.lcm(*(b.denominator for b in nonint))
    scaled = [b.numerator * (lcd // b.denominator) for b in nonint]
    scaled_sum = sum(scaled)
    gcd = math.gcd(*(b.numerator for b in nonint))
    for signs in itertools.product((1, -1), repeat=len(nonint)):
        k_prime = sum(s * b for s, b in zip(signs, nonint))
        if k_prime < 0 or k_prime.denominator != 1:
            continue
        k_prime = int(k_prime)
        k_double = int_sum - n - k_prime + 2
        if k_double < 0 or k_double % 2 != 0:
            continue
        units = k_prime + k_double
        g = 1 if units else gcd
        if 2 * int_max <= scaled_sum // g + lcd * units:
            return CoaxialWitness(
                signs=signs,
                k_prime=k_prime,
                k_double_prime=k_double,
                eta=Fraction(g, lcd),
                b=tuple(v // g for v in scaled) + (lcd,) * units,
            )
    return None


# Why a vector is not admissible; `{}` takes the value scaled with the reason.
_SINGLE = "a single non-unit cone angle admits no metric"
_MARGIN = "Gauss-Bonnet margin {} is not positive"
_HOLONOMY = "holonomy obstruction: odd-lattice distance {} < 1"
_INTEGRAL = "integral angles at distance 1 with 2*max(beta-1) > sum(beta-1)"
_NO_COAXIAL = "mixed angles at distance 1 with no coaxial sign witness"
_NON_INTEGRAL = "all angles non-integral at distance 1 and not an equal pair"


def screen_scaled(count: int, shift: int, cost: int, parity: int, flip: int,
                  scale: int) -> tuple:
    """The rules up to the odd-lattice distance, in their fixed order.

    The terms describe the non-unit entries of a vector over `scale`,
    shifted by -scale: their number and sum, and the cost, parity and
    flip of `round_scaled`.  The checks: nothing left, a single angle, a
    non-positive Gauss-Bonnet margin, then the distance against 1.
    Returns (case, why, distance), distance scaled and None when a check
    before it decided; case is None at distance exactly 1, where
    `boundary_scaled` decides.
    """
    if count == 0:
        return CASE_EMPTY, None, None
    if count == 1:
        return CASE_NONE, (_SINGLE, 0), None
    margin = 2 * scale + shift
    if margin <= 0:
        return CASE_NONE, (_MARGIN, margin), None
    distance = cost if parity else cost + flip
    if distance < scale:
        return CASE_NONE, (_HOLONOMY, distance), distance
    if distance > scale:
        return CASE_A, None, distance
    return None, None, distance


def decide_scaled(nums: Sequence[int], scale: int) -> tuple:
    """The admissibility rules on the angle vector `nums / scale`.

    Returns (case, lattice, coaxial, why): lattice is (distance * scale,
    nearest), or None when a check before the distance decided; coaxial
    is the case-D witness, and why, for case NONE, a reason template
    with the scaled value it formats.  Units are stripped and the rest
    rounded by `round_scaled`; one `screen_scaled` call runs the checks
    up to the distance, and at distance exactly 1 `boundary_scaled`
    applies the rules B, C and D of the module docstring.
    """
    shifted = [v - scale for v in nums if v != scale]
    nearest, cost, parity, flip = round_scaled(shifted, scale)
    case, why, distance = screen_scaled(len(shifted), sum(shifted), cost, parity, flip,
                                        scale)
    lattice = None if distance is None else (distance, nearest)
    if case is not None:
        return case, lattice, None, why
    case, coaxial, why = boundary_scaled(shifted, scale)
    return case, lattice, coaxial, why


def boundary_scaled(shifted: Sequence[int], scale: int) -> tuple:
    """The rules B, C and D at odd-lattice distance exactly 1.

    `shifted` holds the non-unit entries of a vector over `scale`, each
    shifted by -scale; there are at least two, their Gauss-Bonnet margin
    is positive and their distance is exactly 1, as `screen_scaled`
    establishes.  Returns (case, coaxial, why) as `decide_scaled` reports
    them.
    """
    integral = sum(1 for v in shifted if v % scale == 0)
    if len(shifted) == 2 and shifted[0] == shifted[1] and not integral:
        return CASE_B, None, None
    if integral == len(shifted):
        if 2 * max(shifted) <= sum(shifted):
            return CASE_C, None, None
        return CASE_NONE, None, (_INTEGRAL, 0)
    if integral:
        witness = coaxial_check([Fraction(v + scale, scale) for v in shifted])
        if witness is not None:
            return CASE_D, witness, None
        return CASE_NONE, None, (_NO_COAXIAL, 0)
    return CASE_NONE, None, (_NON_INTEGRAL, 0)


def decide_admissible(beta: Iterable) -> AdmissibilityVerdict:
    """Decide whether the angle vector admits a spherical cone metric.

    Runs `decide_scaled` over the least common denominator and returns
    its answer as a verdict with exact values.
    """
    vals = as_angles(beta)
    scale = math.lcm(*(v.denominator for v in vals))
    case, lattice, coaxial, why = decide_scaled(scaled_numerators(vals, scale), scale)
    if lattice is not None:
        lattice = OddLatticeResult(Fraction(lattice[0], scale), tuple(lattice[1]))
    reason = None if why is None else why[0].format(Fraction(why[1], scale))
    return AdmissibilityVerdict(case != CASE_NONE, case, lattice, coaxial, reason)


def troyanov_admissible(beta: Iterable) -> bool:
    """Independent criterion for angle vectors with every entry in (0,1).

    A pair works exactly when equal; for length >= 3 the vector works
    exactly when the Gauss-Bonnet margin is positive and for every j
    min(2, 2*beta_j) + n - 2 > sum(beta).  Entries outside (0,1) are
    rejected.
    """
    vals = as_angles(beta)
    if len(vals) < 2:
        raise ValueError("need at least two angles")
    if any(v >= 1 for v in vals):
        raise ValueError("entries must lie strictly between 0 and 1")
    n = len(vals)
    if n == 2:
        return vals[0] == vals[1]
    if sum(v - 1 for v in vals) <= -2:
        return False
    total = sum(vals)
    return all(min(Fraction(2), 2 * v) + n - 2 > total for v in vals)


_ANGLE_TOKEN = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_fraction(value) -> Fraction:
    """Read one exact rational: an int, or a string of an integer or p/q."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    match = _ANGLE_TOKEN.fullmatch(value.strip()) if isinstance(value, str) else None
    if match is None:
        raise AngleParseError(f"bad rational {value!r}: use integers or fractions like 2/3")
    try:
        p = read_decimal(match[1], "a numerator")
        q = read_decimal(match[2] or "1", "a denominator")
    except ValueError as exc:
        raise AngleParseError(str(exc)) from None
    if q == 0:
        raise AngleParseError(f"zero denominator in {value!r}")
    return Fraction(p, q)


def parse_angles(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated vector of positive angles like `1/2,2/3,2`."""
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise AngleParseError("empty angle vector")
    return as_angles(tokens)


def format_angles(beta: Iterable) -> str:
    """Inverse of `parse_angles` on exact input."""
    return ",".join(str(b) for b in _as_rationals(beta))


def angles_to_json(beta: Iterable) -> list[str]:
    return [str(b) for b in _as_rationals(beta)]


def angles_from_json(obj) -> tuple[Fraction, ...]:
    if not isinstance(obj, list) or not obj:
        raise AngleParseError("angle JSON must be a non-empty list")
    return as_angles([parse_fraction(v) for v in obj])
