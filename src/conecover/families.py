"""Parametric families of branch data that the lift criterion certifies.

Each generator builds a datum together with the base angle vector that
certifies it, aligned entry-by-entry with the rows as constructed:

  P2K_A  degree 2k:  (k1, k2) | (2,...,2) | (2,...,2),   k1 + k2 = 2k,
         k1 != k2; base (1/2, 1/2, 1/2).
  P2K_B  degree 2k:  (2,...,2) | (2 x j1, 2k - 2j1) | (2 x j2, 2k - 2j2),
         j1 + j2 = k, j1 != j2, k >= 3; base (1/2, 1/2, 1/2).
  P3K    degree 3k, k odd >= 3:  (k-2, 2 x (k+1)) | (3,...,3) | (3,...,3);
         base (1/2, 2/3, 2/3).
  PRK_A  degree rk, r >= 2, k >= 2:  (2k-1, 1 x ((r-2)k + 1)) |
         (r,...,r) | (r,...,r); base (1, 1/r, 1/r).
  PRK_B  degree rk:  (j1, j2, 1 x (r-2)k) | (r,...,r) | (r,...,r),
         j1 + j2 = 2k, j1 != j2; base (1, 1/r, 1/r).

`nonprime_witness` picks one instance for any composite degree, which is
how one sees that every composite degree carries exceptional data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import angles_to_json
from .branch_data import BranchDatum, require_degree
from .lift import ExceptionalityCertificate, certify_exceptional


@dataclass(frozen=True)
class FamilyInstance:
    family_id: str
    params: tuple[tuple[str, int], ...]
    datum: BranchDatum
    recommended_beta: tuple[Fraction, ...]

    def certificate(self) -> ExceptionalityCertificate:
        return certify_exceptional(self.datum, self.recommended_beta)

    def to_json(self) -> dict:
        return {
            "family_id": self.family_id,
            "params": dict(self.params),
            "datum": self.datum.to_json(),
            "recommended_beta": angles_to_json(self.recommended_beta),
        }


def _require_split(a: int, b: int, total: int, names: tuple[str, str, str]) -> None:
    # The split a + b = total of one family, named as in its parameters.
    if a + b != total or a == b or min(a, b) < 1:
        x, y, t = names
        raise ValueError(f"need {x} + {y} = {t} with {x} != {y} and both >= 1, got {a},{b}")


def family_2k(k: int, k1: int, k2: int) -> FamilyInstance:
    """P2K_A: split double cover data of degree 2k."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    _require_split(k1, k2, 2 * k, ("k1", "k2", "2k"))
    datum = BranchDatum(2 * k, ((k1, k2), [2] * k, [2] * k))
    half = Fraction(1, 2)
    return FamilyInstance("P2K_A", (("k", k), ("k1", k1), ("k2", k2)),
                          datum, (half, half, half))


def family_2k_twos(k: int, j1: int, j2: int) -> FamilyInstance:
    """P2K_B: degree 2k with the unequal rows made of twos and one big part."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    _require_split(j1, j2, k, ("j1", "j2", "k"))
    datum = BranchDatum(2 * k, ([2] * k, [2] * j1 + [2 * k - 2 * j1],
                                [2] * j2 + [2 * k - 2 * j2]))
    half = Fraction(1, 2)
    return FamilyInstance("P2K_B", (("k", k), ("j1", j1), ("j2", j2)),
                          datum, (half, half, half))


def family_3k(k: int) -> FamilyInstance:
    """P3K: degree 3k for odd k >= 3, two rows of threes."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"need odd k >= 3, got {k}")
    datum = BranchDatum(3 * k, ([k - 2] + [2] * (k + 1), [3] * k, [3] * k))
    return FamilyInstance("P3K", (("k", k),),
                          datum, (Fraction(1, 2), Fraction(2, 3), Fraction(2, 3)))


def family_rk(r: int, k: int) -> FamilyInstance:
    """PRK_A: degree rk with two rows of r's and one deep part 2k-1."""
    if r < 2 or k < 2:
        raise ValueError(f"need r >= 2 and k >= 2, got r={r}, k={k}")
    datum = BranchDatum(r * k, ([2 * k - 1] + [1] * ((r - 2) * k + 1), [r] * k, [r] * k))
    return FamilyInstance("PRK_A", (("r", r), ("k", k)),
                          datum, (Fraction(1), Fraction(1, r), Fraction(1, r)))


def family_rk_split(r: int, k: int, j1: int, j2: int) -> FamilyInstance:
    """PRK_B: like PRK_A but the deep row splits as j1 + j2 = 2k."""
    if r < 2 or k < 2:
        raise ValueError(f"need r >= 2 and k >= 2, got r={r}, k={k}")
    _require_split(j1, j2, 2 * k, ("j1", "j2", "2k"))
    datum = BranchDatum(r * k, ([j1, j2] + [1] * ((r - 2) * k), [r] * k, [r] * k))
    return FamilyInstance("PRK_B", (("r", r), ("k", k), ("j1", j1), ("j2", j2)),
                          datum, (Fraction(1), Fraction(1, r), Fraction(1, r)))


# family id -> (builder, its parameter names in order)
FAMILIES = {
    "P2K_A": (family_2k, ("k", "k1", "k2")),
    "P2K_B": (family_2k_twos, ("k", "j1", "j2")),
    "P3K": (family_3k, ("k",)),
    "PRK_A": (family_rk, ("r", "k")),
    "PRK_B": (family_rk_split, ("r", "k", "j1", "j2")),
}
FAMILY_IDS = tuple(FAMILIES)


def _smallest_prime_factor(n: int) -> int:
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_prime_factor(n) == n


def nonprime_witness(degree: int) -> FamilyInstance:
    """An exceptional instance for any composite degree >= 4.

    Even degrees use P2K_A with the split (k+1, k-1); odd composites use
    PRK_A with r the smallest prime factor.  Raises ValueError on primes
    and on degrees below 4.
    """
    if degree < 4:
        raise ValueError(f"need a composite degree >= 4, got {degree}")
    if is_prime(degree):
        raise ValueError(f"degree {degree} is prime")
    if degree % 2 == 0:
        k = degree // 2
        return family_2k(k, k + 1, k - 1)
    r = _smallest_prime_factor(degree)
    return family_rk(r, degree // r)


def all_instances(degree: int) -> list[FamilyInstance]:
    """Every family instance of the given degree, one per parameter choice.

    Splits are enumerated unordered (k1 > k2, j1 < j2) since swapping the
    two halves reproduces the same datum.  Raises ValueError for a degree
    below 2, as `enumerate_data` does.
    """
    require_degree(degree)
    out: list[FamilyInstance] = []
    if degree % 2 == 0 and degree >= 4:
        k = degree // 2
        for k1 in range(k + 1, 2 * k):
            out.append(family_2k(k, k1, 2 * k - k1))
        if k >= 3:
            for j1 in range(1, (k + 1) // 2):
                out.append(family_2k_twos(k, j1, k - j1))
    if degree % 3 == 0:
        k = degree // 3
        if k >= 3 and k % 2 == 1:
            out.append(family_3k(k))
    # the divisors r of degree with 1 < r < degree, ascending, found in pairs
    small = [r for r in range(2, math.isqrt(degree) + 1) if degree % r == 0]
    for r in small + [degree // r for r in reversed(small) if r * r != degree]:
        k = degree // r
        out.append(family_rk(r, k))
        for j1 in range(1, k):
            out.append(family_rk_split(r, k, j1, 2 * k - j1))
    return out
