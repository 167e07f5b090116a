"""Slow reference implementations used to cross-check the fast paths.

Everything here trades speed for obviousness.  The point is that a bug
in the library and a bug in one of these helpers would have to agree to
slip through, and the implementations share no logic.
"""

from collections import Counter
from fractions import Fraction
import functools
import itertools
import math
import re

from conecover import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    CASE_EMPTY,
    CASE_NONE,
    BranchDatum,
    CoaxialWitness,
    ExceptionalityCertificate,
    Permutation,
    decide_admissible,
    validate_datum,
)
from conecover.angles import as_angles
from conecover.branch_data import require_valid
from conecover.monodromy import (
    _COUNT_MAX_DEGREE,
    _COUNT_PROBE,
    DEFAULT_BUDGET,
    REALIZABLE,
    UNKNOWN,
    UNREALIZABLE,
    MonodromyWitness,
    OracleResult,
    canonical_of_type,
    class_size,
)


def strip_units(beta):
    """Drop entries equal to 1 (smooth points), preserving order."""
    return tuple(b for b in as_angles(beta) if b != 1)


def gauss_bonnet_margin(beta):
    """The area bound 2 + sum(beta_i - 1); a metric needs this positive."""
    vals = as_angles(beta)
    return Fraction(2) + sum((b - 1 for b in vals), Fraction(0))


def rational_gcd(values):
    """Largest rational dividing every value into an integer.

    Equals gcd(numerators) / lcm(denominators) for reduced fractions.
    """
    vals = [Fraction(v) for v in values]
    if not vals:
        raise ValueError("need at least one value")
    if any(v <= 0 for v in vals):
        raise ValueError("values must be positive")
    num = 0
    den = 1
    for v in vals:
        num = math.gcd(num, v.numerator)
        den = math.lcm(den, v.denominator)
    return Fraction(num, den)


def odd_box_distance(vec):
    """Exhaustive minimum L1 distance from vec to the odd-sum lattice.

    Any integer point with a coordinate below floor(x) - 1 or above
    floor(x) + 2 is beaten by moving that coordinate two steps toward x,
    which keeps the parity of the coordinate sum.  So the minimum over
    the whole lattice equals the minimum over that little box.  The box
    is folded coordinate by coordinate, keeping one running minimum per
    parity of the partial sum; costs are scaled to integers first.
    """
    vals = tuple(Fraction(v) for v in vec)
    if not vals:
        raise ValueError("empty vector")
    scale = math.lcm(*(v.denominator for v in vals))
    best = {0: 0, 1: None}
    for v in vals:
        target = int(v * scale)
        base = math.floor(v)
        cur = {0: None, 1: None}
        for parity, cost in best.items():
            if cost is None:
                continue
            for a in range(base - 1, base + 3):
                q = (parity + a) % 2
                c = cost + abs(a * scale - target)
                if cur[q] is None or c < cur[q]:
                    cur[q] = c
        best = cur
    return Fraction(best[1], scale)


def reference_admissible(beta):
    """(admissible, case) by the rules as the `angles` docstring states them.

    Fraction arithmetic throughout, the distance from `odd_box_distance`,
    and `reference_coaxial` for the case-D sign search.
    """
    stripped = [Fraction(b) for b in beta if Fraction(b) != 1]
    if not stripped:
        return True, CASE_EMPTY
    if len(stripped) == 1 or 2 + sum(b - 1 for b in stripped) <= 0:
        return False, CASE_NONE
    distance = odd_box_distance([b - 1 for b in stripped])
    if distance != 1:
        return (True, CASE_A) if distance > 1 else (False, CASE_NONE)
    integral = [b for b in stripped if b.denominator == 1]
    if len(stripped) == 2 and stripped[0] == stripped[1] and not integral:
        return True, CASE_B
    if len(integral) == len(stripped):
        if 2 * (max(stripped) - 1) <= sum(b - 1 for b in stripped):
            return True, CASE_C
        return False, CASE_NONE
    if integral and reference_coaxial(stripped) is not None:
        return True, CASE_D
    return False, CASE_NONE


def all_partitions(n):
    """Every partition of n, parts non-increasing, by plain recursion."""
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return tuple(rec(n, n))


def all_valid_data(degree, branch_points):
    """Every valid datum, by unfiltered product over all partitions."""
    pool = all_partitions(degree)
    out = set()
    for rows in itertools.product(pool, repeat=branch_points):
        datum = BranchDatum(degree, rows)
        if validate_datum(datum).ok:
            out.add(datum.canonical())
    return out


def count_by_cycle_type(degree):
    """Tally all of S_degree by cycle type, one permutation at a time."""
    counts = {}
    for perm in itertools.permutations(range(degree)):
        t = _type_of(perm)
        counts[t] = counts.get(t, 0) + 1
    return counts


# The datum text grammar as one pattern: a degree, a colon, then numbers
# separated by `,` within a row and `|` between rows, spaces anywhere.
_DATUM_TEXT = re.compile(r"\s*(\d+)\s*:\s*(\d+(?:\s*[,|]\s*\d+)*)\s*")


def reference_parse_text(text):
    """(degree, rows) read from `d: p,p | p,p | ...`, or None off the grammar.

    No tokenizer: the whole text must match one pattern, then the rows are
    split on `|` and the parts on `,`.  Zeros are returned as read.
    """
    match = _DATUM_TEXT.fullmatch(text)
    if match is None:
        return None
    rows = [tuple(int(part) for part in row.split(",")) for row in match[2].split("|")]
    return int(match[1]), rows


def reference_lift_decision(nums, rows, scale):
    """The `reference_admissible` case of the lift of `nums / scale` through `rows`.

    Row i takes the value nums[i] / scale; every part m of it contributes
    the lifted angle m * nums[i] / scale, as a Fraction.
    """
    lifted = [Fraction(m * x, scale) for x, parts in zip(nums, rows) for m in parts]
    return reference_admissible(lifted)[1]


def reference_seeds(datum):
    """The family seeds that `search_certificate` tries first, in order.

    Three kinds of base vector, each as a pair (a, b) for the vector with
    a in one entry and b in every other: all halves; one half, the rest
    two-thirds; and 1 with 1/r for each r >= 2 that divides every part of
    some row, r ascending.  Each pair gives the vectors with a in each
    position, in ascending order, and a vector met before is not repeated.
    """
    n = len(datum.rows)
    half = Fraction(1, 2)
    pairs = [(half, half), (half, Fraction(2, 3))]
    gcds = [math.gcd(*row.parts) for row in datum.rows]
    for r in range(2, max(gcds) + 1):
        if any(g % r == 0 for g in gcds):
            pairs.append((Fraction(1), Fraction(1, r)))
    out = []
    for a, b in pairs:
        orders = {tuple(a if j == i else b for j in range(n)) for i in range(n)}
        out += [vec for vec in sorted(orders) if vec not in out]
    return out


def reference_search_certificate(datum, max_numerator, max_denominator):
    """`search_certificate` with no row tables, no grid cache and no skip.

    The family seeds of `reference_seeds` come first, then every vector of
    values p/q with p <= max_numerator and q <= max_denominator, ordered
    by largest denominator and then lexicographically.  The first vector
    that `decide_admissible` accepts and whose lift it rejects certifies.
    """
    require_valid(datum)
    values = sorted({Fraction(p, q) for p in range(1, max_numerator + 1)
                     for q in range(1, max_denominator + 1)})
    grid = sorted(itertools.product(values, repeat=len(datum.rows)),
                  key=lambda vec: (max(v.denominator for v in vec), vec))
    for vec in reference_seeds(datum) + grid:
        base = decide_admissible(vec)
        if not base.admissible:
            continue
        lifted = tuple(m * b for b, row in zip(vec, datum.rows) for m in row.parts)
        verdict = decide_admissible(lifted)
        if not verdict.admissible:
            return ExceptionalityCertificate(datum, vec, base, lifted, verdict)
    return None


def reference_coaxial(beta):
    """The case-D sign search, building eta and b by `rational_gcd`.

    Tries the signs of the non-integral entries with +1 before -1 in
    lexicographic order, and for the first sign vector meeting the
    conditions of the `angles` docstring takes eta as the rational gcd of
    the non-integral entries and k'+k'' ones and b as each of them over
    eta.  Fraction arithmetic throughout.
    """
    vals = [Fraction(b) for b in beta]
    nonint = [b for b in vals if b.denominator != 1]
    ints = [b for b in vals if b.denominator == 1]
    for signs in itertools.product((1, -1), repeat=len(nonint)):
        k_prime = sum(s * b for s, b in zip(signs, nonint))
        if k_prime < 0 or k_prime.denominator != 1:
            continue
        k_double = sum(ints) - len(vals) - k_prime + 2
        if k_double < 0 or k_double % 2 != 0:
            continue
        vec = nonint + [Fraction(1)] * int(k_prime + k_double)
        eta = rational_gcd(vec)
        b = tuple(int(v / eta) for v in vec)
        if 2 * max(ints) <= sum(b):
            return CoaxialWitness(signs, int(k_prime), int(k_double), eta, b)
    return None


def compose(p, q):
    """p then q, as 1-based image tuples: x -> q(p(x))."""
    return tuple(q[x - 1] for x in p)


def inverse(p):
    """The inverse of a 1-based image tuple."""
    out = [0] * len(p)
    for x, y in enumerate(p, 1):
        out[y - 1] = x
    return tuple(out)


def cycle_lengths(images):
    """The cycle type, non-increasing, of a 1-based image tuple."""
    return _type_of([x - 1 for x in images])


def transitive(perms, degree):
    """Whether 1-based image tuples carry the point 1 onto every point."""
    orbit = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for p in perms:
            if p[x - 1] not in orbit:
                orbit.add(p[x - 1])
                frontier.append(p[x - 1])
    return len(orbit) == degree


def _type_of(perm):
    # Cycle lengths, non-increasing, of a 0-based permutation tuple.
    seen = set()
    lengths = []
    for start in range(len(perm)):
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def reference_transitive_count(degree, rows):
    """(N, T) by listing tuples: those with the given cycle types and
    product one, and those among them whose group is transitive.

    Every permutation comes from `itertools.permutations`, filed under a
    cycle type computed here.  The tuple runs over the classes of every
    row but the last; the last entry is the inverse of the product of the
    others and must have the last row's type.  Transitivity is a walk
    from the point 0.
    """
    by_type = {}
    for perm in itertools.permutations(range(degree)):
        by_type.setdefault(_type_of(perm), []).append(perm)
    rows = [tuple(row) for row in rows]
    product_one = transitive = 0
    for head in itertools.product(*(by_type.get(row, []) for row in rows[:-1])):
        product = tuple(range(degree))
        for perm in head:
            product = tuple(perm[x] for x in product)
        last = [0] * degree
        for x, y in enumerate(product):
            last[y] = x
        if _type_of(last) != rows[-1]:
            continue
        product_one += 1
        orbit = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for perm in head + (last,):
                if perm[x] not in orbit:
                    orbit.add(perm[x])
                    frontier.append(perm[x])
        transitive += len(orbit) == degree
    return product_one, transitive


def reference_class_images(parts, degree):
    """Every permutation of the given cycle type once, in the oracle's order.

    The smallest unplaced element leads the next cycle, whose remaining
    entries run over ordered selections of the unplaced elements; fixed
    points are placed one recursion level each.
    """
    counts = Counter(parts)
    lengths = sorted(counts)
    images = list(range(1, degree + 1))
    used = [False] * (degree + 1)

    def rec(placed):
        if placed == degree:
            yield tuple(images)
            return
        lead = 1
        while used[lead]:
            lead += 1
        used[lead] = True
        rest = [e for e in range(lead + 1, degree + 1) if not used[e]]
        for length in lengths:
            if counts[length] == 0:
                continue
            counts[length] -= 1
            if length == 1:
                yield from rec(placed + 1)
            else:
                for tail in itertools.permutations(rest, length - 1):
                    for e in tail:
                        used[e] = True
                    images[lead - 1] = tail[0]
                    for a, b in zip(tail, tail[1:]):
                        images[a - 1] = b
                    images[tail[-1] - 1] = lead
                    yield from rec(placed + length)
                    images[lead - 1] = lead
                    for e in tail:
                        images[e - 1] = e
                        used[e] = False
            counts[length] += 1
        used[lead] = False

    # rec refers to itself through its closure cell; emptying the cell on
    # the way out frees it by reference counting instead of leaving a cycle.
    try:
        yield from rec(0)
    finally:
        del rec


def reference_find_witness(datum, budget=DEFAULT_BUDGET):
    """`find_witness` as an exhaustive search and nothing else.

    The same slots are derived, pinned and enumerated in the same order,
    but every node rebuilds the products of the slots before and after the
    derived one from the identity and inverts both.  No count is taken.
    Where `find_witness` would count (a space above `_COUNT_PROBE`, and
    no budget, one that covers the space, or one of at least the probe at
    a degree of at most `_COUNT_MAX_DEGREE`), a datum that an unbudgeted
    search proves unrealizable is UNREALIZABLE with the whole space as
    `nodes`; elsewhere UNREALIZABLE is reported only after every node was
    visited.
    """
    require_valid(datum)
    space = math.prod(sorted(class_size(row, datum.degree) for row in datum.rows)[:-2])
    countable = space > _COUNT_PROBE and (
        budget is None or space <= budget
        or (budget >= _COUNT_PROBE and datum.degree <= _COUNT_MAX_DEGREE))
    if countable and _exhausts(datum):
        return OracleResult(UNREALIZABLE, None, space)
    return _reference_search(datum, budget)


@functools.lru_cache(maxsize=None)
def _exhausts(datum):
    # Whether the whole space holds no witness: a count of zero.
    return _reference_search(datum, None).status == UNREALIZABLE


def _reference_search(datum, budget):
    d = datum.degree
    rows = [row.parts for row in datum.rows]
    n = len(rows)
    sizes = [class_size(row, d) for row in datum.rows]

    derived = max(range(n), key=lambda i: (sizes[i], i))
    rest = [i for i in range(n) if i != derived]
    pinned = max(rest, key=lambda i: (sizes[i], i))
    enum_positions = [i for i in rest if i != pinned]

    assign = [None] * n
    assign[pinned] = canonical_of_type(datum.rows[pinned], d).images

    nodes = 0
    exhausted = True
    witness = None

    def evaluate():
        # All enumerated slots are filled; solve for the derived slot.
        left = tuple(range(1, d + 1))
        for i in range(derived):
            left = compose(left, assign[i])
        right = tuple(range(1, d + 1))
        for i in range(derived + 1, n):
            right = compose(right, assign[i])
        candidate = compose(inverse(left), inverse(right))
        if cycle_lengths(candidate) != rows[derived]:
            return False
        assign[derived] = candidate
        if not transitive(assign, d):
            assign[derived] = None
            return False
        return True

    def search(k):
        nonlocal nodes, exhausted
        if k == len(enum_positions):
            nodes += 1
            if budget is not None and nodes > budget:
                exhausted = False
                return False
            return evaluate()
        pos = enum_positions[k]
        for images in reference_class_images(rows[pos], d):
            assign[pos] = images
            if search(k + 1):
                return True
            if not exhausted:
                return False
        assign[pos] = None
        return False

    try:
        if search(0):
            witness = tuple(assign)
    finally:
        del search
    if witness is not None:
        perms = tuple(Permutation(images) for images in witness)
        return OracleResult(REALIZABLE, MonodromyWitness(d, perms), nodes)
    if exhausted:
        return OracleResult(UNREALIZABLE, None, nodes)
    return OracleResult(UNKNOWN, None, nodes)


# The cycle-notation pattern `parse_cycles` used to match with: the same
# strings as today's, but its nested repeat backtracks exponentially on an
# unclosed run of digits, so only short strings may be given to it.
REFERENCE_CYCLE_TEXT = re.compile(r"^\s*(\(\s*(\d+\s*)*\)\s*)*$")
