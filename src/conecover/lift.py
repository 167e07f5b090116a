"""Certifying branch data as exceptional by lifting cone angles.

A spherical cone metric pulls back through a branched cover: a point of
local multiplicity m over a cone of angle beta becomes a cone of angle
m * beta upstairs.  So if some admissible angle vector, one entry per
branch point, lifts through a datum to a vector that is NOT admissible,
no cover with that datum can exist.  The pair (admissible base vector,
inadmissible lift) is a self-contained certificate that anyone can
recheck with the admissibility decision alone.

One rule, `certify_exceptional`, decides every candidate of the search,
and the verifier accepts a certificate only when that rule, rerun, gives
it back unchanged.  `search_certificate` streams family seeds, extra
candidates, then a cached grid of small fractions kept as runs of index
tuples that differ only in their last entry; no rule reads the order, so
each multiset of grid values is decided once.  An integer screen, from
tables per row and grid value of the lifted non-unit entries and their
`angles.round_scaled` terms, only drops grid lifts it proves admissible:
a summed rounding cost above 1 means case A, and every other lift goes
once, as one table entry per row, to `angles.rules_scaled`, which joins
the rows and which `decide_admissible` also calls.
`classify` joins the search to the monodromy oracle into one verdict.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import getitem
from typing import Iterable, Iterator, Sequence

from .angles import (
    CASE_NONE,
    AdmissibilityVerdict,
    angles_from_json,
    angles_to_json,
    as_angles,
    decide_admissible,
    round_scaled,
    rules_scaled,
    scaled_numerators,
)
from .branch_data import BranchDatum, format_datum, require_valid
from .monodromy import DEFAULT_BUDGET, REALIZABLE, UNREALIZABLE, OracleResult, find_witness

VERDICT_REALIZABLE = "REALIZABLE"
VERDICT_CERTIFIED = "EXCEPTIONAL_CERTIFIED"
VERDICT_ORACLE = "EXCEPTIONAL_ORACLE"
VERDICT_UNKNOWN = "UNKNOWN"


class CertificationRefused(Exception):
    """A proposed base vector fails to certify; `kind` says which way.

    kind is "base-not-admissible" (the vector admits no metric downstairs,
    so it proves nothing) or "lift-admissible" (the lifted vector still
    admits a metric, so the criterion is silent).
    """

    def __init__(self, kind: str, base_verdict: AdmissibilityVerdict,
                 lifted_verdict: AdmissibilityVerdict | None = None):
        self.kind = kind
        self.base_verdict = base_verdict
        self.lifted_verdict = lifted_verdict
        super().__init__(kind)


@dataclass(frozen=True)
class ExceptionalityCertificate:
    """Everything needed to recheck that a datum is exceptional."""

    datum: BranchDatum
    witness_beta: tuple[Fraction, ...]
    base_verdict: AdmissibilityVerdict
    lifted: tuple[Fraction, ...]
    lifted_verdict: AdmissibilityVerdict

    def to_json(self) -> dict:
        return {
            "datum": self.datum.to_json(),
            "beta": angles_to_json(self.witness_beta),
            "base_verdict": self.base_verdict.to_json(),
            "lifted": angles_to_json(self.lifted),
            "lifted_verdict": self.lifted_verdict.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExceptionalityCertificate":
        return cls(
            datum=BranchDatum.from_json(obj["datum"]),
            witness_beta=angles_from_json(obj["beta"]),
            base_verdict=AdmissibilityVerdict.from_json(obj["base_verdict"]),
            lifted=angles_from_json(obj["lifted"]),
            lifted_verdict=AdmissibilityVerdict.from_json(obj["lifted_verdict"]),
        )


def lift_angles(beta: Iterable, datum: BranchDatum) -> tuple[Fraction, ...]:
    """Pull the angle vector back through the datum.

    Entry i of beta pairs with row i; every part m of that row
    contributes one lifted angle m * beta_i, rows in order, parts in
    their stored (non-increasing) order.
    """
    vals = as_angles(beta)
    if len(vals) != len(datum.rows):
        raise ValueError(f"angle vector has {len(vals)} entries for {len(datum.rows)} rows")
    return tuple(part * b for b, row in zip(vals, datum.rows) for part in row.parts)


def certify_exceptional(datum: BranchDatum, beta: Iterable) -> ExceptionalityCertificate:
    """Certify the datum exceptional with the given base vector.

    Raises ValueError when the datum itself fails validation, and
    CertificationRefused when the vector is not admissible or its lift
    still is.
    """
    require_valid(datum)
    vals = as_angles(beta)
    lifted = lift_angles(vals, datum)
    base_verdict = decide_admissible(vals)
    if not base_verdict.admissible:
        raise CertificationRefused("base-not-admissible", base_verdict)
    lifted_verdict = decide_admissible(lifted)
    if lifted_verdict.admissible:
        raise CertificationRefused("lift-admissible", base_verdict, lifted_verdict)
    return ExceptionalityCertificate(datum, vals, base_verdict, lifted, lifted_verdict)


def verify_certificate(cert: ExceptionalityCertificate) -> bool:
    """Recheck a certificate from scratch, trusting none of its verdicts.

    True exactly when `certify_exceptional` on the stored datum and base
    vector returns this certificate: the lift and both whole verdicts.
    """
    try:
        return certify_exceptional(cert.datum, cert.witness_beta) == cert
    except (CertificationRefused, ValueError):
        return False


@lru_cache(maxsize=None)
def _grid(max_numerator: int, max_denominator: int
          ) -> tuple[tuple[Fraction, ...], int, tuple[int, ...]]:
    # The grid's values p/q ascending, their least common denominator (the
    # scale), and each value's numerator over the scale.
    values = tuple(sorted({Fraction(p, q) for p in range(1, max_numerator + 1)
                           for q in range(1, max_denominator + 1)}))
    scale = math.lcm(*range(1, max_denominator + 1))
    return values, scale, tuple(scaled_numerators(values, scale))


def require_grid_bounds(max_numerator: int, max_denominator: int) -> None:
    """Raise ValueError unless both grid bounds are at least 1."""
    if max_numerator < 1 or max_denominator < 1:
        raise ValueError(f"grid bounds must be at least 1, got max_numerator={max_numerator}"
                         f" and max_denominator={max_denominator}")


def _row_table(parts: Sequence[int], nums: Sequence[int], scale: int) -> list[tuple]:
    # For each grid value nums[i] / scale, the non-unit entries m * nums[i]
    # that a row with these parts lifts it to, shifted by -scale, after
    # their `round_scaled` cost, parity and flip: a row of `rules_scaled`.
    table = []
    for x in nums:
        shifted = tuple(m * x - scale for m in parts if m * x != scale)
        table.append((*round_scaled(shifted, scale)[1:], shifted))
    return table


@lru_cache(maxsize=None)
def _admissible_grid(n: int, max_numerator: int, max_denominator: int
                     ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # Candidate base vectors, as index tuples into the grid values, ordered by
    # (largest denominator, lexicographic) and pre-filtered to the admissible
    # ones; inadmissible bases never certify.  They are kept as runs
    # (prefix, lasts): the vectors prefix + (i,) for i in lasts, ascending,
    # so that flattening the runs lists the grid.  The vectors whose largest
    # denominator is q come out in order from the lexicographic product of
    # the values with denominator <= q.  Every rule reads the entries
    # without their order, so each multiset of indices is decided once, keyed
    # by the sum of (n + 1) ** i over its indices: no index repeats more than
    # n times, so no two multisets share a key.
    values, scale, nums = _grid(max_numerator, max_denominator)
    rows = _row_table((1,), nums, scale)
    weights = [(n + 1) ** i for i in range(len(values))]
    admissible = {sum(map(weights.__getitem__, idx)):
                  rules_scaled(map(rows.__getitem__, idx), scale)[0] != CASE_NONE
                  for idx in itertools.combinations_with_replacement(range(len(values)), n)}
    runs = []
    for q in range(1, max_denominator + 1):
        pool = [i for i, v in enumerate(values) if v.denominator <= q]
        top = [i for i in pool if values[i].denominator == q]
        top_set = set(top)
        for prefix in itertools.product(pool, repeat=n - 1):
            tops = top if top_set.isdisjoint(prefix) else pool
            key = sum(map(weights.__getitem__, prefix))
            lasts = tuple(i for i in tops if admissible[key + weights[i]])
            if lasts:
                runs.append((prefix, lasts))
    return tuple(runs)


def _family_candidates(datum: BranchDatum) -> list[tuple[Fraction, ...]]:
    # Base vectors that certify the known infinite families.  Lifting is
    # row-order sensitive, so a seed pair (a, b) gives a in each entry and b
    # in the others, in ascending order: a moves right if a < b, left if not.
    # A valid datum has two rows or more, so no vector comes twice.
    n = len(datum.rows)
    half = Fraction(1, 2)
    gcds = [math.gcd(*row.parts) for row in datum.rows]
    pairs = [(half, Fraction(2, 3))] + [(Fraction(1), Fraction(1, r))
                                        for r in range(2, max(gcds) + 1)
                                        if any(g % r == 0 for g in gcds)]
    out = [(half,) * n]
    for a, b in pairs:
        for i in range(n) if a < b else range(n - 1, -1, -1):
            out.append((b,) * i + (a,) + (b,) * (n - 1 - i))
    return out


def _grid_candidates(datum: BranchDatum, max_numerator: int, max_denominator: int
                     ) -> Iterator[tuple[Fraction, ...]]:
    # In grid order, the grid vectors (all admissible) whose lift the integer
    # screen finds inadmissible.  By Riemann-Hurwitz the lifted Gauss-Bonnet
    # margin is the degree times the base margin, so positive; the odd-lattice
    # distance is at least the summed rounding cost, and an entry costs at
    # most half the grid's denominator.  So a lift whose summed row cost
    # exceeds that denominator has three or more non-unit entries and is case
    # A: it is skipped.  The rest go to `rules_scaled`, one row per table.
    values, scale, nums = _grid(max_numerator, max_denominator)
    tables = [_row_table(row.parts, nums, scale) for row in datum.rows]
    costs = [[term[0] for term in table] for table in tables]
    last_cost = costs[-1]
    for prefix, lasts in _admissible_grid(len(tables), max_numerator, max_denominator):
        room = scale - sum(map(getitem, costs, prefix))
        for i in lasts:
            if last_cost[i] > room:
                continue
            idx = prefix + (i,)
            if rules_scaled(map(getitem, tables, idx), scale)[0] == CASE_NONE:
                yield tuple(values[i] for i in idx)


def search_certificate(
    datum: BranchDatum,
    max_numerator: int = 6,
    max_denominator: int = 6,
    extra_candidates: Sequence[Iterable] = (),
) -> ExceptionalityCertificate | None:
    """Look for a certifying base vector; None when the search exhausts.

    Candidates are tried in a fixed order: the family seeds (halves; a
    half with two-thirds; 1 with 1/r for each r >= 2 dividing every part
    of some row), then `extra_candidates`, then every vector with entries
    p/q, p <= max_numerator, q <= max_denominator, ordered by largest
    denominator and then lexicographically.  Each candidate goes straight
    to `certify_exceptional` and the first it accepts is returned, so
    identical inputs give identical output.  Grid vectors whose lift the
    integer screen proves admissible are passed over undecided; that
    changes neither the order nor the answer.  Raises ValueError when the
    datum is not valid, a grid bound is below 1, or a reached extra
    candidate is malformed.
    """
    require_grid_bounds(max_numerator, max_denominator)
    require_valid(datum)
    candidates = itertools.chain(
        _family_candidates(datum),
        map(as_angles, extra_candidates),
        _grid_candidates(datum, max_numerator, max_denominator),
    )
    for vals in candidates:
        try:
            return certify_exceptional(datum, vals)
        except CertificationRefused:
            pass
    return None


@dataclass(frozen=True)
class Classification:
    """The verdict of `classify` on a datum, with both engines' evidence."""

    datum: BranchDatum
    verdict: str
    certificate: ExceptionalityCertificate | None
    oracle: OracleResult
    certify_s: float
    oracle_s: float

    def to_json(self) -> dict:
        out: dict = {"datum": self.datum.to_json(), "verdict": self.verdict}
        if self.oracle.witness is not None:
            out["witness"] = self.oracle.witness.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        out["timings"] = {"certify_s": round(self.certify_s, 6),
                          "oracle_s": round(self.oracle_s, 6)}
        return out


def classify(datum: BranchDatum, max_numerator: int = 6, max_denominator: int = 6,
             budget: int | None = DEFAULT_BUDGET) -> Classification:
    """Run `search_certificate`, then `find_witness`, and join their answers.

    The verdict is the first that holds of REALIZABLE (a witness),
    EXCEPTIONAL_CERTIFIED (a certificate), EXCEPTIONAL_ORACLE (the oracle
    proves the datum unrealizable) and UNKNOWN (its budget ran out).  A
    certificate next to a witness means an engine is wrong: RuntimeError.
    """
    t0 = time.perf_counter()
    cert = search_certificate(datum, max_numerator=max_numerator,
                              max_denominator=max_denominator)
    t1 = time.perf_counter()
    oracle = find_witness(datum, budget=budget)
    t2 = time.perf_counter()
    if cert is not None and oracle.status == REALIZABLE:
        raise RuntimeError(f"soundness violation: {format_datum(datum)} is certified "
                           "exceptional yet realizable")
    verdict = (VERDICT_REALIZABLE if oracle.status == REALIZABLE
               else VERDICT_CERTIFIED if cert is not None
               else VERDICT_ORACLE if oracle.status == UNREALIZABLE
               else VERDICT_UNKNOWN)
    return Classification(datum, verdict, cert, oracle, t1 - t0, t2 - t1)
