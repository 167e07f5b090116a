"""Exact counts of permutation tuples by cycle type.

For partitions mu_1, ..., mu_n of d, N(d; mu) is the number of tuples
(s_1, ..., s_n) in S_d with s_i of cycle type mu_i and product
s_1 * ... * s_n the identity, and T(d; mu) the number of those that
generate a transitive group; a branch datum is realizable exactly when
T > 0.  Frobenius' formula gives N from the characters chi of S_d,

    N(d; mu) = sum over chi of chi(1)^2 / d! * prod_i |C_i| chi(mu_i) / chi(1),

where |C_i| chi(mu_i) / chi(1) is a central character value, an integer,
so the sum is exact in integers.  The characters come from the
Murnaghan-Nakayama rule on beta numbers.  They depend on S_d alone, so
each process keeps, on first use, the shapes of S_d, their dimensions
and each cycle type's central characters over them.  Recursion on the
orbit of the point 1 gives T (Mednykh, Sib. Math. J. 25, 1984;
Lando-Zvonkin, Graphs on Surfaces and Their Applications, App. A):

    T(d; mu) = N(d; mu) - sum over k < d and sub-multisets alpha_i of mu_i
               with sum k of C(d-1, k-1) T(k; alpha) N(d-k; mu - alpha).
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, factorial, prod
from typing import Sequence

from .branch_data import partitions_of
from .monodromy import class_size


def _beta(shape: tuple[int, ...]) -> list[int]:
    # The beta numbers of a shape: its parts plus m-1, m-2, ..., 0.
    m = len(shape)
    return [part + m - 1 - i for i, part in enumerate(shape)]


def _dimension(shape: tuple[int, ...]) -> int:
    """chi^shape(1): the hook length formula on beta numbers."""
    beta = _beta(shape)
    spread = prod(b - c for b, c in itertools.combinations(beta, 2))
    return factorial(sum(shape)) * spread // prod(factorial(b) for b in beta)


# degree -> (shapes `partitions_of(degree)`, dimensions, {cycle type: central characters})
_TABLES: dict[int, tuple[tuple, list[int], dict]] = {}


class TupleCounts:
    """N and T of the module docstring.

    Rows are non-increasing tuples of parts; both counts are symmetric in
    the order of the rows, so they are memoised on the sorted rows, for
    one computation, as are the Murnaghan-Nakayama values; the central
    characters they are summed from are kept for the process.
    """

    def __init__(self):
        self._characters: dict = {}
        self._product_one: dict = {}
        self._transitive: dict = {}
        self._splits: dict = {}

    def character(self, shape: tuple[int, ...], rho: tuple[int, ...]) -> int:
        """chi^shape at cycle type rho, by Murnaghan-Nakayama on beta numbers.

        Removing a rim hook of length r = rho[0] moves one beta number b
        to a free b - r >= 0, with the sign of the number of beta numbers
        it passes.  Once rho holds only ones, the value is the dimension.
        """
        if not rho or rho[0] == 1:
            return _dimension(shape)
        key = (shape, rho)
        value = self._characters.get(key)
        if value is None:
            r, rest = rho[0], rho[1:]
            beta = _beta(shape)
            m = len(beta)
            value = 0
            for i, b in enumerate(beta):
                c = b - r
                if c < 0:
                    break
                j = i + 1
                while j < m and beta[j] > c:
                    j += 1
                if j < m and beta[j] == c:
                    continue
                moved = beta[:i] + beta[i + 1:j] + [c] + beta[j:]
                inner = [x - (m - 1 - k) for k, x in enumerate(moved)]
                # a tuple from a list, as in `monodromy._mul`
                term = self.character(tuple([p for p in inner if p]), rest)
                value += -term if (j - i) % 2 == 0 else term
            self._characters[key] = value
        return value

    def product_one(self, degree: int, rows: Sequence[tuple[int, ...]]) -> int:
        """N: tuples of the given cycle types in S_degree with product one."""
        rows = tuple(sorted(rows))
        key = (degree, rows)
        value = self._product_one.get(key)
        if value is None:
            if degree not in _TABLES:
                shapes = partitions_of(degree)
                _TABLES[degree] = (shapes, [_dimension(shape) for shape in shapes], {})
            shapes, dims, central = _TABLES[degree]
            for row in rows:
                if row not in central:
                    # |C| chi(C) / chi(1) is a central character value, an integer.
                    size = class_size(row, degree)
                    central[row] = [size * self.character(shape, row) // dim
                                    for shape, dim in zip(shapes, dims)]
            columns = zip(dims, *[central[row] for row in rows])
            total = sum(dim * dim * prod(values) for dim, *values in columns)
            value = total // factorial(degree)
            self._product_one[key] = value
        return value

    def transitive(self, degree: int, rows: Sequence[tuple[int, ...]]) -> int:
        """T: those of the N tuples that generate a transitive group."""
        rows = tuple(sorted(rows))
        key = (degree, rows)
        value = self._transitive.get(key)
        if value is None:
            value = self.product_one(degree, rows)
            if value:
                splits = [self.splits(row) for row in rows]
                for k in range(1, degree):
                    for split in itertools.product(*(s.get(k, ()) for s in splits)):
                        rest = self.product_one(degree - k, [left for _, left in split])
                        if rest:
                            orbit = self.transitive(k, [taken for taken, _ in split])
                            value -= comb(degree - 1, k - 1) * orbit * rest
            self._transitive[key] = value
        return value

    def splits(self, parts: tuple[int, ...]) -> dict:
        """Each sub-multiset of parts with what it leaves, by its sum."""
        out = self._splits.get(parts)
        if out is None:
            counts = sorted(Counter(parts).items(), reverse=True)
            out = {}
            for take in itertools.product(*(range(mult + 1) for _, mult in counts)):
                taken = tuple([p for (p, _), t in zip(counts, take) for _ in range(t)])
                left = tuple([p for (p, m), t in zip(counts, take) for _ in range(m - t)])
                out.setdefault(sum(taken), []).append((taken, left))
            self._splits[parts] = out
        return out
