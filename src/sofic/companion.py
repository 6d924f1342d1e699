"""Exact fixed-point counts on the rank-1 tori Z/n by companion-matrix powers.

Write f = x^lo p(x), where p = sum a_k x^k has degree D and leading
coefficient lc = a_D, and let A = lc C, where C is the companion matrix of
p / lc: A is the integer matrix with lc on the subdiagonal and -a_k in the
last column, and its eigenvalues are lc alpha over the roots alpha of p.
The convolution matrix M_n of f on Z/n is a circulant, so

    |det M_n| = |Res(x^n - 1, p)| = |lc|^n prod |alpha^n - 1|
              = |det(A^n - lc^n I)| / |lc|^(n (D - 1)),

the periodic-point count of a toral or solenoidal automorphism
(Lind-Schmidt-Ward, Invent. Math. 101, 1990; Everest-Ward, Heights of
Polynomials and Entropy in Algebraic Dynamics, Springer 1999).  A trace
walks A^n across its sizes: P -> P A is a column shift and one
combination, and a gap is raised by squaring when `Companion._walk`
prices that lower.  Each count is one D x D fraction-free elimination and
one exact division, with no prime, no CRT and no bound.

The same elimination gives the nullity when the count is 0.  With
q = x^n - 1 mod p, A^n - lc^n I = lc^n q(C), and column j of q(C) holds the
coefficients of x^j q mod p.  For g = gcd(p, x^n - 1), the first D - deg g
columns are independent and every later one lies in their span (together
they span the ideal (g) / (p)), so the first column with no pivot is the
rank D - deg g.  As x^n - 1 is squarefree, deg g is the number of n-th
roots of unity among the roots of p, the nullity of M_n.

`Companion.cost` prices a count in the units of `algebraic.COST_CAP`
(about 5 ns), from the sizes of the minors that the elimination builds, so
that `algebraic._counts` can compare the walk with the split.  The module
is imported by the first rank-1 count, not with the package.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .groups import GroupRingElement

# Units (about 5 ns, as COST_CAP's) of the interpreted work of one count on
# a rank-1 torus, and of one matrix row in it.
_COUNT_BASE = 1500
_ROW = 100


def _mul_cost(words: float) -> float:
    """Units of one product of two integers of `words` 64-bit words
    (Karatsuba's exponent log2 3)."""
    return 8 * max(words, 1.0) ** 1.585


def _div_cost(quotient: float, divisor: float) -> float:
    """Units of one quotient of integers, by schoolbook division, the
    quotient and the divisor given in words."""
    return 2 * max(quotient, 1.0) * max(divisor, 1.0)


class Companion:
    """The walk through the powers of A for one f = x^lo p(x), p = sum a_k
    x^k of degree D and leading coefficient lc = a_D, and its prices."""

    def __init__(self, f: GroupRingElement):
        exps = sorted(f.terms)
        self.degree = exps[-1] - exps[0]
        p = [f.terms.get(exps[0] + k, 0) for k in range(self.degree + 1)]
        self.lc = p[-1]
        # A's last column, without its zeros
        self.taps = [(k, -a) for k, a in enumerate(p[:-1]) if a]
        # the bits per power of n of a minor of order j of A^n - lc^n I grow
        # as those of the j largest |lc alpha| together, at most j lead +
        # growth, as M(p) = |lc| prod max(1, |alpha|) <= |p|_2 (Landau)
        self.lead = math.log2(abs(self.lc))
        self.growth = math.log2(sum(a * a for a in p)) / 2 - self.lead

    def cost(self, gap: int, n: int) -> float:
        """The units of A^n from A^(n - gap), from the identity when
        gap = n, and of the count at Z/n."""
        D = self.degree
        # the words of a minor of order j of A^n - lc^n I
        words = [(n * (j * self.lead + self.growth) + j) / 64 for j in range(D + 1)]
        work = _COUNT_BASE + _ROW * D * D + _mul_cost(n * self.lead / 64)
        if not D:
            return work
        work += min(self._walk(gap, words[1]))
        # Bareiss: step k updates D - 1 - k rows, (D - 1 - k)^2 entries into
        # minors of order k + 2, each by two products and, past the first
        # step, one exact quotient by a minor of order k
        for k in range(D - 1):
            update = 2 * _mul_cost(words[k + 1]) + (k > 0) * _div_cost(words[k + 2], words[k])
            work += (D - 1 - k) * _ROW + (D - 1 - k) ** 2 * update
        if abs(self.lc) > 1:
            work += _mul_cost(words[D]) + _div_cost(words[1], words[D - 1])
        return work

    def _walk(self, gap: int, words: float) -> tuple:
        """(units of gap steps P -> P A, units of P A^gap with A^gap by
        squaring) for entries of `words` words."""
        D = self.degree
        steps = gap * D * (_ROW + (D + len(self.taps)) * (8 + words))
        # the squares' sizes double, so all before the last cost half of it
        squares = gap.bit_length() * D * D * _ROW + D**3 * 1.5 * _mul_cost(words)
        return steps, squares

    def counts(self, sizes: Sequence[int]) -> List[tuple]:
        """(|det M_n|, rank M_n) for the nondecreasing sizes n, one walk
        through the powers of A from the identity: each gap stepped or
        squared, whichever `_walk` prices lower."""
        D = self.degree
        out: List[tuple] = []
        power, last = _identity(D), 0
        for n in sizes:
            if n == last:
                out.append(out[-1])
                continue
            if D:
                steps, squares = self._walk(n - last, (n * (self.lead + self.growth) + 1) / 64)
                if squares < steps:
                    power = _matmul(power, self._power(n - last))
                else:
                    for _ in range(n - last):
                        power = self._times_a(power)
            out.append(self._count(power, n))
            last = n
        return out

    def _times_a(self, power: list) -> list:
        """P A: the columns shifted left and scaled by lc, the last one
        P times A's last column."""
        lc, taps = self.lc, self.taps
        return [[lc * v for v in row[1:]] + [sum([row[k] * a for k, a in taps])] for row in power]

    def _power(self, e: int) -> list:
        """A^e, e >= 1, by squaring, the multiplications by A as steps."""
        power = self._times_a(_identity(self.degree))
        for bit in bin(e)[3:]:
            power = _matmul(power, power)
            if bit == "1":
                power = self._times_a(power)
        return power

    def _count(self, power: list, n: int) -> tuple:
        D, lc = self.degree, self.lc
        if not D:
            return abs(lc) ** n, n
        shifted, scale = [row[:] for row in power], lc**n
        for i, row in enumerate(shifted):
            row[i] -= scale
        det, rank = _det_rank(shifted)
        # rank M_n = n - nullity, the nullity D - rank (module docstring)
        return abs(det) // abs(lc) ** (n * (D - 1)), n - D + rank


def _identity(D: int) -> list:
    return [[int(i == j) for j in range(D)] for i in range(D)]


def _matmul(a: list, b: list) -> list:
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def _det_rank(a: list) -> tuple:
    """(det, rank) of a nonempty square integer matrix (a list of rows,
    changed in place) by fraction-free elimination (Bareiss, Math. Comp. 22,
    1968): each update is an exact quotient by the previous pivot, and a row
    is swapped in for a pivot 0.  The rank is the index of the first column
    with no pivot, so it is exact only for a matrix whose leading columns up
    to the rank are independent and span the rest, as q(C)'s do (module
    docstring)."""
    sign, previous = 1, 1
    for k in range(len(a) - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if swap is None:
                return 0, k
            a[k], a[swap], sign = a[swap], a[k], -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, len(a)):
                row[j] = (pivot * row[j] - lead * top[j]) // previous
        previous = pivot
    det = sign * a[-1][-1]
    return det, len(a) - (not det)
