"""Exhaustive realizability oracle for branch data.

A datum (d, rows) is realizable by a branched self-cover of the sphere
exactly when there are permutations s_1, ..., s_n in S_d whose cycle
types are the rows, whose product s_1 * s_2 * ... * s_n is the identity,
and which generate a transitive subgroup.  This module searches for such
a tuple directly.

Four reductions keep the search small.  Realizability is invariant
under conjugating the whole tuple, so one permutation (the largest
conjugacy class among those enumerated) is pinned to a canonical class
representative.  The product condition determines any one permutation
from the others, so the row with the largest class overall is never
enumerated at all: its inverse is the product of the slots after it and
then those before it, and only the cycle type of that product is tested
(a permutation and its inverse share it).  A cyclic rotation of the
factors is a conjugate, so the product is taken with the deepest
enumerated slot last and costs one composition per node.  As the
deepest slot is placed one point at a time, the search follows that
conjugate from the one element whose image the new point sets: a point
that closes a cycle of a length the derived row lacks, or leaves a path
longer than its longest cycle, rules out every tuple that completes it,
and they count as examined without being built.
And a count can stand in for exhaustion: a search whose position reaches
`_COUNT_PROBE` without a witness asks `counting` for the number of
transitive tuples, and a count of zero ends it with the answer
exhaustion would give, even past the budget up to degree
`_COUNT_MAX_DEGREE`.  Permutations compose left to right:
(p * q)(x) = q(p(x)).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, prod
from typing import Iterator, Sequence

from .branch_data import BranchDatum, Partition, read_decimal, require_int, require_valid

DEFAULT_BUDGET = 10**8

# 96% of the realizable 3-point data of degree 9-10 and 4-point data of
# degree 8 show a witness within this many nodes, skipped ones included,
# so only a search that reaches this position without one counts.  With
# S_d's characters kept, a count costs about 0.3 ms, a few hundred nodes
# (2-core x86-64, Python 3.11); probes of 250 or 500 were no faster.
_COUNT_PROBE = 1000

# The largest degree at which a count may settle a space larger than the
# budget; see `find_witness`.
_COUNT_MAX_DEGREE = 30

REALIZABLE = "realizable"
UNREALIZABLE = "unrealizable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..d}; images[i] is the image of i+1."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        d = len(images)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"not a bijection on 1..{d}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return format_cycles(self)


@dataclass(frozen=True)
class MonodromyWitness:
    """A realizing tuple: one permutation per row, product the identity."""

    degree: int
    perms: tuple[Permutation, ...]

    def to_json(self) -> dict:
        return {"degree": self.degree, "perms": [format_cycles(p) for p in self.perms]}

    @classmethod
    def from_json(cls, obj: dict) -> "MonodromyWitness":
        degree = require_int(obj["degree"], "witness 'degree'")
        perms = tuple(parse_cycles(s, degree) for s in obj["perms"])
        return cls(degree, perms)


@dataclass(frozen=True)
class OracleResult:
    """Search outcome: status plus a witness when realizable.

    `nodes` counts the complete candidate tuples examined, in search
    order; tuples skipped because part of their product already has the
    wrong cycle type count as examined.  A budgeted search that runs out
    reports UNKNOWN, with `nodes` one past the budget.  UNREALIZABLE is
    reported only when the whole space is covered, by the search or by a
    count of zero transitive tuples, and its `nodes` is the size of that
    space either way.
    """

    status: str
    witness: MonodromyWitness | None = None
    nodes: int = 0


def _mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # From a list, not a generator: a tuple built from a generator is
    # allocated for ten entries and shrunk, and the shrunk ones collect in
    # CPython's free lists, 2,000 per length.
    return tuple([q[x - 1] for x in p])


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


def _parts_of(t, degree: int) -> tuple[int, ...]:
    parts = t.parts if isinstance(t, Partition) else Partition(tuple(t)).parts
    if sum(parts) != degree:
        raise ValueError(f"type {parts} does not partition {degree}")
    return parts


def _cycle_counts(t, degree: int) -> list[int]:
    # counts[k] is how many cycles of length k the type t has.
    counts = [0] * (degree + 1)
    for part in _parts_of(t, degree):
        counts[part] += 1
    return counts


def canonical_of_type(t, degree: int) -> Permutation:
    """The representative with cycles on consecutive blocks 1..t1, etc."""
    parts = _parts_of(t, degree)
    images = list(range(1, degree + 1))
    start = 1
    for length in parts:
        for offset in range(length - 1):
            images[start - 1 + offset] = start + offset + 1
        images[start + length - 2] = start
        start += length
    return Permutation(tuple(images))


def class_size(t, degree: int) -> int:
    """Order of the conjugacy class: d! / (prod parts * prod mult!)."""
    size = factorial(degree)
    for length, mult in enumerate(_cycle_counts(t, degree)):
        size //= length**mult * factorial(mult)
    return size


def _class_images(t, degree: int, walk=None) -> Iterator:
    # Each permutation of the type once, as one list rewritten in place: the
    # smallest unplaced element leads the next cycle, whose other entries
    # run over ordered selections of the unplaced elements.
    counts = _cycle_counts(t, degree)
    lengths = [length for length, mult in enumerate(counts) if mult]
    images = list(range(1, degree + 1))
    return _place(counts, lengths, images, [False] * (degree + 1), degree,
                  class_size(t, degree), walk, 0, 0, 0)


def _place(counts: list[int], lengths: list[int], images: list[int], used: list[bool],
           free: int, size: int, walk, lead: int, prev: int, left: int) -> Iterator:
    # Yields `images` once for each of the `size` ways to complete it: `left`
    # more points after `prev`, then `lead` again, close the cycle led by
    # `lead` (none if 0), then the cycles left in `counts` go on the `free`
    # points `used` leaves.  Once exhausted it leaves all four lists as it
    # found them.  With a `walk` (see `_closes_wrong`), a point after which
    # the conjugate x -> images[index[x]] cannot have the cycle type `need`
    # yields, instead of its completions, how many they are.
    if left:
        size //= free
        for e in range(lead + 1, len(images) + 1):
            if used[e]:
                continue
            images[prev - 1] = e
            if walk is not None and _closes_wrong(walk, images, used, prev):
                yield size
                continue
            used[e] = True
            yield from _place(counts, lengths, images, used, free - 1, size, walk,
                              lead, e, left - 1)
            used[e] = False
        images[prev - 1] = prev
        return
    if lead:
        images[prev - 1] = lead
        if walk is not None and _closes_wrong(walk, images, used, prev):
            yield size
        else:
            yield from _place(counts, lengths, images, used, free, size, walk, 0, 0, 0)
        images[prev - 1] = prev
        return
    if counts[1] == free:
        # Only fixed points are left, and images fixes every unplaced point.
        yield images
        return
    lead = 1
    while used[lead]:
        lead += 1
    used[lead] = True
    for length in lengths:
        mult = counts[length]
        if mult:
            counts[length] = mult - 1
            # The completions with `lead` on a cycle of this length.
            yield from _place(counts, lengths, images, used, free - 1,
                              size * length * mult // free, walk, lead, lead, length - 1)
            counts[length] = mult
    used[lead] = False


def _closes_wrong(walk, images: list[int], used: list[bool], point: int) -> bool:
    # Whether the conjugate, followed from the one element whose image
    # uses the image just set at `point` (back inverts index), closes a
    # cycle whose length `need` lacks or runs through more points than
    # `top`, its longest allowed cycle.  When it runs, `used` marks just
    # the points whose images are set.
    index, back, need, top = walk
    start = x = back[point - 1]
    length = 0
    while used[index[x] + 1]:
        x = images[index[x]] - 1
        length += 1
        if x == start:
            return not need[length]
        if length == top:
            return True
    return False


def _has_type(images: Sequence[int], index: list[int], need: list[int]) -> bool:
    # Whether x -> images[index[x]] has need[k] cycles of each length k; it
    # stops at the first cycle of a length that is already used up.
    left = need[:]
    seen = [False] * len(index)
    for start in range(len(index)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[index[j]] - 1
            length += 1
        if not left[length]:
            return False
        left[length] -= 1
    return True


def _transitive_images(images: Sequence[tuple[int, ...]], degree: int) -> bool:
    reached = [False] * (degree + 1)
    reached[1] = True
    stack = [1]
    count = 1
    while stack:
        x = stack.pop()
        for img in images:
            y = img[x - 1]
            if not reached[y]:
                reached[y] = True
                count += 1
                stack.append(y)
    return count == degree


def _transitive_count(degree: int, rows: Sequence[Partition]) -> int:
    # Imported on first use: `counting` imports this module, and most
    # processes never count, so they need not load it.
    from .counting import TupleCounts

    return TupleCounts().transitive(degree, [row.parts for row in rows])


def _fill(assign: list, positions: Sequence[int], rows: Sequence[Partition],
          d: int) -> Iterator[None]:
    # Yields once per filling of assign[positions] by members of their
    # classes, in class order with the last position running fastest.  The
    # filled positions' class generators wait on a list, not in recursion.
    members = []
    while True:
        if len(members) < len(positions):
            members.append(_class_images(rows[positions[len(members)]], d))
        else:
            yield
        while members and (images := next(members[-1], None)) is None:
            members.pop()
        if not members:
            return
        assign[positions[len(members) - 1]] = images


def find_witness(datum: BranchDatum, budget: int | None = DEFAULT_BUDGET) -> OracleResult:
    """Search for a realizing permutation tuple.

    Returns REALIZABLE with the first witness found (the search order is
    deterministic), UNREALIZABLE when the space is exhausted or a count
    shows it holds no witness, or UNKNOWN when the node budget runs out
    first.  `budget` of None never stops; a negative one is refused.

    A search that reaches 1,000 nodes (`_COUNT_PROBE`) without a witness
    counts the transitive tuples when the budget is None or covers the
    whole space, and a count of zero answers UNREALIZABLE, with `nodes`
    the whole space.  Where the space is larger than the budget, it counts
    only if the budget is at least the probe and the degree is at most 30:
    the count's own cost grows fast with the degree, to 3.3 s and 60 MB on
    the worst data tried at degree 30 and 5 s and 112 MB at degree 36
    (2-core x86-64, Python 3.11), and above that the budget alone bounds
    the search.
    """
    require_valid(datum)
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    d = datum.degree
    rows = datum.rows
    n = len(rows)
    sizes = [class_size(row, d) for row in rows]

    ranked = sorted(zip(sizes, range(n)))
    derived, pinned = ranked[-1][1], ranked[-2][1]
    enum_positions = [i for i in range(n) if i not in (derived, pinned)]
    space = prod(sizes[i] for i in enum_positions)
    countable = space > _COUNT_PROBE and (
        budget is None or space <= budget
        or (budget >= _COUNT_PROBE and d <= _COUNT_MAX_DEGREE))

    # The derived slot's inverse is the product of the slots after it and
    # then those before it.  Rotated so that the deepest enumerated slot
    # comes last, that product becomes a conjugate, of the same cycle type,
    # whose other factors are fixed while the deepest slot runs.
    order = list(range(derived + 1, n)) + list(range(derived))
    cut = order.index(enum_positions[-1]) + 1 if enum_positions else 0
    rotated = order[cut:] + order[:cut]
    head, last = rotated[:-1], rotated[-1]
    need = _cycle_counts(rows[derived], d)
    identity = tuple(range(1, d + 1))

    assign: list = [None] * n
    assign[pinned] = canonical_of_type(rows[pinned], d).images

    nodes = 0
    for _ in _fill(assign, enum_positions[:-1], rows, d):
        # Every slot but `last` is filled: one composition per node.
        prefix = identity
        for i in head:
            prefix = _mul(prefix, assign[i])
        index = [x - 1 for x in prefix]
        if enum_positions:
            back = [x - 1 for x in _inv(prefix)]
            members = _class_images(rows[last], d, (index, back, need, rows[derived].parts[0]))
        else:
            members = (assign[last],)
        for images in members:
            # An int stands for that many members ruled out unbuilt.
            skipped = images.__class__ is int
            before = nodes
            nodes += images if skipped else 1
            # The probe comes first, so a skip past both the probe and the
            # budget still counts.
            if before < _COUNT_PROBE <= nodes and countable and _transitive_count(d, rows) == 0:
                return OracleResult(UNREALIZABLE, None, space)
            if budget is not None and nodes > budget:
                return OracleResult(UNKNOWN, None, budget + 1)
            if skipped or not _has_type(images, index, need):
                continue
            # The cycle type matched: invert the product in its own order.
            assign[last] = images
            product = identity
            for i in order:
                product = _mul(product, assign[i])
            assign[derived] = _inv(product)
            if _transitive_images(assign, d):
                perms = tuple(Permutation(images) for images in assign)
                return OracleResult(REALIZABLE, MonodromyWitness(d, perms), nodes)
    return OracleResult(UNREALIZABLE, None, space)


def verify_witness(datum: BranchDatum, perms: Sequence[Permutation]) -> bool:
    """Check types, identity product, and transitivity independently."""
    d = datum.degree
    perms = tuple(perms)
    if len(perms) != len(datum.rows):
        return False
    if any(p.degree != d for p in perms):
        return False
    index = list(range(d))
    for p, row in zip(perms, datum.rows):
        # p's cycles fit into the parts, so they are the parts when these sum to d.
        if row.size != d or not _has_type(p.images, index, _cycle_counts(row, d)):
            return False
    product = tuple(range(1, d + 1))
    for p in perms:
        product = _mul(product, p.images)
    if product != tuple(range(1, d + 1)):
        return False
    return _transitive_images([p.images for p in perms], d)


_CYCLE_TEXT = re.compile(r"^\s*(\([\d\s]*\)\s*)*$")


def format_cycles(perm: Permutation) -> str:
    """Cycle notation like `(1 2)(3 4)`; the identity prints as `()`."""
    cycles = []
    seen = [False] * perm.degree
    for start in range(1, perm.degree + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        j = perm.images[start - 1]
        while j != start:
            cycle.append(j)
            seen[j - 1] = True
            j = perm.images[j - 1]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) if cycles else "()"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Inverse of `format_cycles`; unmentioned points stay fixed."""
    if not _CYCLE_TEXT.match(text):
        raise ValueError(f"bad cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    touched = set()
    for group in re.findall(r"\(([^()]*)\)", text):
        points = [read_decimal(tok, "a cycle point") for tok in group.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            if not 1 <= a <= degree:
                raise ValueError(f"point {a} outside 1..{degree}")
            if a in touched:
                raise ValueError(f"point {a} appears twice")
            touched.add(a)
            images[a - 1] = b
    return Permutation(tuple(images))
