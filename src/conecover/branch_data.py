"""Branching data for sphere-to-sphere branched covers.

A branch datum is a degree d together with one integer partition of d per
branch point; the parts record the local multiplicities of the cover over
that point.  A candidate datum must satisfy three combinatorial
constraints before any geometric question is asked: every row sums to the
degree, every row actually ramifies (some part is at least 2), and the
total defect sum(part - 1) over all parts equals 2d - 2, which is the
Riemann-Hurwitz count for a degree-d cover of the sphere by the sphere.

Rows are kept with their parts sorted non-increasingly.  Two data that
differ only by reordering rows describe the same cover, so the fully
canonical form additionally sorts the rows themselves; `enumerate_data`
and `parse_datum` emit that form.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class DatumParseError(ValueError):
    """Raised by `parse_datum` on malformed input.

    `position` is the 0-based character offset of the offending token when
    the input was the text format, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


def require_int(value, what: str) -> int:
    """Return `value` if it is an int and not a bool, else raise TypeError.

    JSON integers are read this way: true, 4.7 and "4" are refused, not coerced.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{what} must be an integer, got {value!r}")


def read_decimal(token: str, what: str = "a JSON integer") -> int:
    """Read a digit token from text or JSON as an int, naming `what` if it is too long."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{what} of {len(token.lstrip('+-'))} digits is too long") from None


@dataclass(frozen=True)
class Partition:
    """A partition of a positive integer, parts sorted non-increasingly."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        for p in parts:
            if require_int(p, "each part") < 1:
                raise ValueError(f"parts must be positive, got {p}")
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def defect(self) -> int:
        """sum(part - 1), the ramification this row contributes."""
        return self.size - len(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))


@dataclass(frozen=True)
class BranchDatum:
    """A degree together with one partition per branch point.

    The constructor checks only structure (positive degree, at least one
    row); the combinatorial constraints live in `validate_datum` so that
    invalid candidates can still be represented and reported on.
    """

    degree: int
    rows: tuple[Partition, ...]

    def __post_init__(self):
        if require_int(self.degree, "degree") < 1:
            raise ValueError(f"degree must be a positive integer, got {self.degree!r}")
        rows = tuple(
            row if isinstance(row, Partition) else Partition(tuple(row))
            for row in self.rows
        )
        if not rows:
            raise ValueError("a branch datum needs at least one row")
        object.__setattr__(self, "rows", rows)

    def canonical(self) -> "BranchDatum":
        """The same datum with rows sorted lexicographically non-increasing."""
        ordered = tuple(sorted(self.rows, key=lambda r: r.parts, reverse=True))
        return BranchDatum(self.degree, ordered)

    def to_json(self) -> dict:
        return {"degree": self.degree, "rows": [list(r.parts) for r in self.rows]}

    @classmethod
    def from_json(cls, obj) -> "BranchDatum":
        """Build a datum from {"degree": d, "rows": [[...], ...]}.

        Row order is preserved; use `parse_datum` for the canonical form.
        """
        if not isinstance(obj, dict):
            raise DatumParseError("datum JSON must be an object")
        rows = obj.get("rows")
        if not isinstance(rows, list) or not rows:
            raise DatumParseError("datum JSON needs a non-empty 'rows' list")
        if not all(isinstance(row, list) for row in rows):
            raise DatumParseError("each row must be a list of integers")
        try:
            return cls(obj.get("degree"), rows)
        except (TypeError, ValueError) as exc:
            raise DatumParseError(str(exc)) from None

    def __str__(self) -> str:
        return format_datum(self)


@dataclass(frozen=True)
class Violation:
    """One failed validation constraint; `row` is an index or None."""

    constraint: str
    message: str
    row: int | None = None

    def to_json(self) -> dict:
        out = {"constraint": self.constraint, "message": self.message}
        if self.row is not None:
            out["row"] = self.row
        return out


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}


def total_defect(rows: Iterable) -> int:
    """Total ramification sum(part - 1) over every part of every row."""
    return sum(p - 1 for row in rows for p in row)


def validate_datum(datum: BranchDatum) -> ValidationReport:
    """Check the three cover constraints and report every violation.

    Constraint ids: "row-sum" (each row is a partition of the degree),
    "has-branching-part" (each row has a part >= 2), "defect" (total
    defect equals 2*degree - 2).
    """
    d = datum.degree
    violations = []
    for i, row in enumerate(datum.rows):
        s = row.size
        if s != d:
            violations.append(
                Violation("row-sum", f"row {i} sums to {s}, expected the degree {d}", i)
            )
        if row.parts[0] < 2:
            violations.append(
                Violation("has-branching-part", f"row {i} has no part >= 2", i)
            )
    t = total_defect(datum.rows)
    if t != 2 * d - 2:
        violations.append(
            Violation("defect", f"total defect {t} differs from 2*degree-2 = {2 * d - 2}")
        )
    return ValidationReport(not violations, tuple(violations))


def require_valid(datum: BranchDatum) -> None:
    """Raise ValueError listing every violation when the datum is invalid."""
    report = validate_datum(datum)
    if not report.ok:
        problems = "; ".join(v.message for v in report.violations)
        raise ValueError(f"datum fails validation: {problems}")


def _partitions(total: int, max_part: int, fewest: int, most: int
                ) -> Iterator[tuple[int, ...]]:
    # Partitions of total into fewest..most parts of at most max_part, reverse-lex.
    # Each first part tried leaves a rest that fits; a rest of ones comes whole.
    if total == 0 or max_part == 1:
        yield (1,) * total
        return
    if most < 1:
        return
    for first in range(min(max_part, total, total - fewest + 1), -(-total // most) - 1, -1):
        for rest in _partitions(total - first, first, fewest - 1, most - 1):
            yield (first,) + rest


def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as non-increasing tuples, reverse-lex order."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    return tuple(_partitions(n, n, 1, n))


def require_degree(degree: int) -> None:
    """Raise ValueError unless the degree is at least 2."""
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")


def enumerate_data(degree: int, branch_points: int) -> Iterator[BranchDatum]:
    """Yield every valid datum with the given degree and row count.

    Each datum appears exactly once up to reordering rows: the rows come
    out sorted lexicographically non-increasing, parts non-increasing
    within each row.  The stream itself is deterministic.
    """
    require_degree(degree)
    if branch_points < 1:
        raise ValueError(f"need at least one branch point, got {branch_points}")
    # The other rows' defects lie in 1..degree-1 and all add to 2*degree - 2,
    # so each row's lies in [low, high]: it has degree - high to degree - low
    # parts.  Partitions are frozen, so equal rows of different data share one.
    low = max(1, 2 * degree - 2 - (branch_points - 1) * (degree - 1))
    high = min(degree - 1, 2 * degree - 1 - branch_points)
    pool = [Partition(p) for p in _partitions(degree, degree, degree - high, degree - low)]
    defects = [p.defect for p in pool]
    for combo in _defect_combos(defects, 0, 2 * degree - 2, branch_points, degree - 1, ()):
        yield BranchDatum(degree, tuple([pool[i] for i in combo]))


def _defect_combos(defects: list[int], start: int, left: int, remaining: int,
                   most: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # Non-decreasing extensions of acc by `remaining` indices from `start` on
    # whose defects sum to `left`, in lexicographic order.  Each index comes
    # with all its copies at once, most first, so the depth is the number of
    # distinct indices.  Each defect lies in 1..most and together they exceed
    # 1 by left - remaining, so a branch that cannot reach `left` is cut
    # before it is entered.
    last = len(defects) - 1
    for i in range(start, last + 1):
        df = defects[i]
        if df * remaining == left:
            yield acc + (i,) * remaining
        if remaining == 1 or i == last or df > left - (remaining - 1):
            continue
        fewer = remaining - 1 if df == 1 else min(remaining - 1, (left - remaining) // (df - 1))
        for copies in range(fewer, 0, -1):
            rest = left - copies * df
            if rest <= (remaining - copies) * most:
                yield from _defect_combos(defects, i + 1, rest, remaining - copies, most,
                                          acc + (i,) * copies)


_TOKEN = re.compile(r"\d+|\S")


def parse_datum(text: str) -> BranchDatum:
    """Parse `d: p,p | p,p | ...` or the JSON object form.

    Whitespace is insignificant in the text form.  The result is fully
    canonical: parts sorted within rows and rows sorted.  The text is cut
    into runs of decimal digits and single other characters, each of
    which must be `:`, `,` or `|`; one pass then reads the degree, `:`,
    and parts alternating with separators up to the end.  Text errors
    carry the character offset of the offending token.
    """
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text, parse_int=read_decimal)
        except json.JSONDecodeError as exc:
            raise DatumParseError(f"bad JSON: {exc.msg}", exc.pos) from None
        except ValueError as exc:
            raise DatumParseError(str(exc)) from None
        return BranchDatum.from_json(obj).canonical()

    tokens = [(match[0], match.start()) for match in _TOKEN.finditer(text)]
    for token, offset in tokens:
        if not token.isdecimal() and token not in ":,|":
            raise DatumParseError(f"unexpected character {token!r}", offset)
    if not tokens:
        raise DatumParseError("empty input", 0)
    # The empty token at offset len(text) marks the end of the input.
    tokens.append(("", len(text)))

    rows: list[Partition] = []
    parts: list[int] = []
    for k, (token, offset) in enumerate(tokens):
        if k == 1:
            if token != ":":
                raise DatumParseError("expected ':' after the degree", offset)
            degree = parts.pop()
        elif k % 2 == 0:
            what = "a part" if k else "a degree"
            if not token:
                raise DatumParseError(f"expected {what} at end of input", offset)
            if not token.isdecimal():
                raise DatumParseError(f"expected {what}, got {token!r}", offset)
            try:
                value = read_decimal(token, what)
            except ValueError as exc:
                raise DatumParseError(str(exc), offset) from None
            if value < 1:
                raise DatumParseError(f"{'parts' if k else 'degree'} must be positive",
                                      offset)
            parts.append(value)
        elif token in ("|", ""):
            rows.append(Partition(tuple(parts)))
            parts = []
        elif token != ",":
            raise DatumParseError(f"expected ',' or '|', got {token!r}", offset)
    return BranchDatum(degree, tuple(rows)).canonical()


def format_datum(datum: BranchDatum) -> str:
    """Render a datum in the `d: p,p | p,p` text form."""
    rows = " | ".join(str(row) for row in datum.rows)
    return f"{datum.degree}: {rows}"
