"""Integer polynomial walks t_n = lc^n x^n mod p, of degree < D for p of
degree D and leading coefficient lc: a step is t_(n+1) = lc x t_n - c p, c
the x^D coefficient of x t_n, and a long gap is squared, t_(a+b) being the
pseudo-remainder of t_a t_b by p, its degree taken as 2D - 2, divided by
lc^(D - 1).  A subshift table walks its transfer matrix's monic
characteristic polynomial (`subshift._transfer_traces`), and a rank-1
torus count walks f = x^lo p(x): the circulant M_n of f on Z/n has
|det M_n| = |Res(x^n - 1, p)| = |lc|^n prod |alpha^n - 1| over the roots
alpha of p (Lind-Schmidt-Ward, Invent. Math. 101, 1990).  With s = t_n -
lc^n = lc^n (x^n - 1) mod p,

    Res(p, s) = lc^(deg s) prod s(alpha) = lc^(deg s + n D) prod (alpha^n - 1),

so |det M_n| = |Res(p, s)| / |lc|^(n (D - 1) + deg s): one subresultant
remainder sequence (Collins, J. ACM 14, 1967; Cohen, GTM 138, 3.3) and one
exact division, with no prime, no CRT and no bound.  When the count is 0,
the last nonzero remainder, a rational multiple of Euclid's, is a multiple
of gcd(p, s) = gcd(p, x^n - 1) (p itself when s = 0); as x^n - 1 is
squarefree, its degree is the number of n-th roots of unity among the
roots of p, the nullity of M_n.

`walk_price` prices a walk and `Companion.cost` a count in
`algebraic.COST_CAP`'s units (about 5 ns).  The module is imported by the
first rank-1 count or subshift length past D.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence

# Units (about 5 ns, as COST_CAP's) of the interpreted work of one count, of
# one step, product or pass of a pseudo-remainder, and of one coefficient.
_COUNT_BASE = 1500
_CALL = 250
_TERM = 25


def _mul_cost(words: float) -> float:
    """Units of one product of integers of `words` 64-bit words (Karatsuba)."""
    return 8 * max(words, 1.0) ** 1.585


def _div_cost(quotient: float, divisor: float) -> float:
    """Units of one schoolbook quotient, its sizes given in words."""
    return 2 * max(quotient, 1.0) * max(divisor, 1.0)


def count_floor(degree: int) -> int:
    """The fewest units of a count for p of degree D: the fixed work and the
    resultant's D - 1 stages of two passes and the quotients each."""
    stages = max(degree - 1, 0)
    return _COUNT_BASE + stages * 2 * _CALL + 3 * _TERM * degree * stages // 2


def walk_price(degree: int, taps: int, gap: int, words: float) -> tuple:
    """(units of gap steps, of t_gap by squares and one product) for p of
    degree D > 0 with ``taps`` nonzero terms below lc, t of ``words`` words."""
    steps = gap * (_CALL + (degree + taps) * (_TERM + words))
    # a product is D^2 products and D passes by p; the last square has half
    # t_n's words, all before it half its cost, the last product two
    calls = (gap.bit_length() + 1) * (2 * degree * degree * _TERM + (degree + 1) * _CALL)
    return steps, calls + degree * degree * (3.5 * _mul_cost(words / 2) + 2 * words)


class Companion:
    """The walk t_n = lc^n x^n mod p, p ascending, lc != 0, roots at 0 kept."""

    def __init__(self, p: Sequence[int]):
        self.p = list(p)
        self.degree = len(self.p) - 1
        self.lc = self.p[-1]
        self.taps = [(k, a) for k, a in enumerate(self.p[:-1]) if a]
        # a minor of order j of s(C), C the companion matrix of p, has at most
        # n (j lead + growth) bits, as M(p) <= |p|_2 (Landau)
        self.lead = math.log2(abs(self.lc))
        self.growth = math.log2(sum(a * a for a in self.p)) / 2 - self.lead

    def cost(self, gap: int, n: int) -> float:
        """The units of t_n from t_(n - gap) (t_0 = 1) and of the count."""
        D, lead = self.degree, self.lead
        work = count_floor(D) + _mul_cost(n * lead / 64)
        # a minor of order j > 0 has base + j step words; p's own, order 0, one
        base, step = n * self.growth / 64, (n * lead + 1) / 64
        work += min(walk_price(D, len(self.taps), gap, base + step))
        # stage k of the resultant, from remainders of minors of orders k and
        # k + 1 (subresultants): two passes over D - 1 - k coefficients, each
        # two products of both orders, and as many quotients by g h
        for k in range(D - 1):
            low, high = k and base + k * step, base + (k + 1) * step
            update = 2 * _mul_cost(low + high) + _div_cost(high + step, 2 * low)
            work += (D - 1 - k) * update
        divisor = n * D * lead / 64
        return work + _mul_cost(divisor) + _div_cost(base + step, divisor)

    def counts(self, sizes: Sequence[int]) -> List[tuple]:
        """(|det M_n|, rank M_n) for the nondecreasing sizes n, one `walk`."""
        D, lc = self.degree, self.lc
        out: List[tuple] = []
        if not D:
            # one running |lc|^n, times |lc|^gap at each size
            power, last = 1, 0
            for n in sizes:
                power, last = power * abs(lc) ** (n - last), n
                out.append((power, n))
            return out
        for n, t in zip(sizes, self.walk(sizes, self.lead + self.growth)):
            s = [t[0] - lc**n] + t[1:]
            while s and not s[-1]:
                s.pop()
            res, nullity = _resultant(self.p, s)
            out.append((abs(res) // abs(lc) ** (n * (D - 1) + len(s) - 1), n - nullity))
        return out

    def walk(self, sizes: Iterable[int], bits: float) -> Iterator[list]:
        """t_n for the nondecreasing sizes n, D > 0, from t_0 = 1: each gap
        stepped or squared, as `walk_price` prices it at n ``bits`` + 1 bits."""
        D, taps = self.degree, len(self.taps)
        t, last = [1] + [0] * (D - 1), 0
        for n in sizes:
            # a gap of one is always cheaper stepped
            if n - last > 1:
                steps, squares = walk_price(D, taps, n - last, (n * bits + 1) / 64)
                if squares < steps:
                    t, last = self._mul(t, self._power(n - last)), n
            for _ in range(n - last):
                t = self._step(t)
            last = n
            yield t

    def _step(self, t: list) -> list:
        """t_(n+1) = lc x t_n - c p from t_n."""
        c = t[-1]
        t = [0] + (t[:-1] if self.lc == 1 else [self.lc * v for v in t[:-1]])
        for k, a in self.taps:
            t[k] -= c * a
        return t

    def _mul(self, u: list, v: list) -> list:
        """t_(a+b) from t_a and t_b: the pseudo-remainder of their product,
        of degree 2D - 2, divided by lc^(D - 1)."""
        product = [0] * (2 * self.degree - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v, i):
                    product[j] += x * y
        scale = self.lc ** (self.degree - 1)
        return [c // scale for c in _prem(product, self.p)]

    def _power(self, e: int) -> list:
        """t_e, e >= 1, by squaring, the multiplications by lc x as steps."""
        t = self._step([1] + [0] * (self.degree - 1))
        for bit in bin(e)[3:]:
            t = self._mul(t, t)
            if bit == "1":
                t = self._step(t)
        return t


def _prem(u: list, v: list) -> list:
    """The pseudo-remainder lc(v)^(len(u) - len(v) + 1) u mod v of integer
    polynomials (ascending coefficients), len(v) - 1 of them."""
    lead, m = v[-1], len(v) - 1
    u, scale = list(u), 1
    while len(u) > m:
        top = u.pop()
        cut = len(u) - m
        # each step scales u by lead; a coefficient takes the scales it
        # missed as it enters the window that v reaches
        u[cut] *= scale
        u[cut:] = [lead * c - top * b for c, b in zip(u[cut:], v)]
        scale *= lead
    return u


def _resultant(a: list, b: list) -> tuple:
    """(Res(a, b), deg gcd(a, b)) of integer polynomials, deg a > deg b, b
    without trailing zeros, by the subresultant remainder sequence (Cohen,
    Algorithm 3.3.7, without contents)."""
    g = h = sign = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _prem(a, b)
        while r and not r[-1]:
            r.pop()
        scale = g * h**delta
        a, b = b, [c // scale for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1)
    da = len(a) - 1
    return (sign * b[0] ** da // h ** (da - 1), 0) if b else (0, da)
