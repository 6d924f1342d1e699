"""Exact fixed-point counts and entropy traces over finite quotients.

For f with integer coefficients and a finite quotient G/Gn of size d, the
convolution operator of f on the quotient's group algebra is the d x d
integer matrix

    M[a][b] = fhat[a * b^-1],   fhat[c] = sum of f_s over s with image c,

a group-circulant.  Solutions of M h = 0 with h in (R/Z)^d form a compact
group isomorphic to (R/Z)^nullity x prod Z/d_i, where d_i are the Smith
invariant factors of M and the nullity is d - rank M; when det M != 0 the
solution count is |det M| exactly.  Normalizing, h_n = log|count| / d is
the per-quotient entropy value, and exp(log|det M| / d) is the
finite-dimensional determinant with respect to the normalized trace.

Every count is exact over arbitrary-precision integers, by one of two
routes, neither of which builds M.  On a rank-1 torus Z/n, with
f = x^lo p(x), p of degree D and leading coefficient lc, and
s = lc^n x^n - lc^n mod p,

    |det M| = |Res(x^n - 1, p)| = |Res(p, s)| / |lc|^(n (D - 1) + deg s),

the periodic-point count of Lind-Schmidt-Ward, so a trace walks lc^n x^n
mod p across its sizes and each count is one subresultant remainder
sequence and one exact division, with no prime; when the count is 0, the
last remainder's degree, deg gcd(p, x^n - 1), is the nullity (`companion`).
That route costs D^2 products of growing integers per quotient and the
other about the number of terms per character, so both are priced before
any work, in one unit, and a rank-1 trace takes the cheaper (`_counts`): a
sparse f of high degree, or a dense one of degree 20 or more, stays on the
split.  A split is priced once, from the plan it runs, by `_Split`, the one
priced plan, which holds its prime budgets, work and prime supply; on a
rank-1 torus only when its floor, the fixed cost of a plan per quotient,
cannot rule it out, or once the walk's price passes the cap.

The split serves every quotient.  Right translation by an abelian
subgroup A commutes with M, so modulo a prime p = 1 (mod exp A) M is
similar to |A| blocks of size d/|A|, one per character of A (Serre,
Linear Representations of Finite Groups, ch. 7).  Right translation by
an n in the normaliser of A commutes with M too and carries the block of
chi to that of chi^n, chi^n(a) = chi(n^-1 a n), so one block per orbit of
characters is built, its determinant counted once per character of the
orbit (Mackey-Clifford theory; Serre, chs. 7-8).  Each quotient supplies
the split plan: a torus quotient takes A = G, one coset and 1 x 1 blocks,
the characters' values F(chi) = sum_c fhat[c] chi(c) (the periodic-point
formula of Lind-Schmidt-Ward), each its own orbit, so its plan lists its
terms and no characters; an explicit quotient grows A greedily from
an element of maximal order, so an abelian table gets A = G too, while
SL(2, Z/p) keeps its own centraliser, A = <-u> of order 2p, whose 2p
characters fall into 6 orbits.  The primes p = 1 (mod exp A) are the
largest such in (2^30, 2^31), filtered from one pool per process of the
primes in that range in descending order, sieved exactly in segments of
2^15 numbers as far down as the moduli served so far needed.  The counts
of a whole trace run together in one `_split_det`, in rounds: each round
draws every unfinished plan's next chunk of primes and eliminates
consecutive plans of one block size as one batched int64 group, whose
character exponents are built for that round alone.  The product of the
determinants is lifted by CRT against Hadamard's bound, (det M)^2 <=
(sum_c fhat[c]^2)^d, as every row of M is a permutation of fhat.  When f is
symmetric on an explicit quotient (fhat[c] = fhat[c^-1], so M is real
symmetric), the orbits are closed under chi -> chi^-1 as well, and
|det M| = |S| H^2 for integers H, a product over one character of each
non-real pair, and S, over the real characters: H is lifted against
|H| <= (sum c^2)^(d/4), half the determinant's bits, and S against
|S| <= l1^(m #real) (l1 = sum |fhat|, which bounds every eigenvalue), from
the same primes, the real blocks built only until S has its own.  When
det M = 0 the same elimination gives the nullity d - rank M, each block's
rank certified by a norm bound.  A count, or a trace, is refused before
its first prime or power when its estimated cost exceeds COST_CAP, the one
cap of every priced route, subshift tables' included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from .groups import (
    GroupRingElement,
    Quotient,
    ResourceGuardError,
    SplitPlan,
    identity_element,
)

__all__ = [
    "SolutionCount",
    "TraceRecord",
    "SkippedQuotient",
    "EntropyTrace",
    "fix_count",
    "entropy_trace",
    "log_big_int",
]

LOG2 = math.log(2.0)

# The most work one count, trace, subshift table or enumeration, or the prime
# supply of one count, may be estimated at (a priced plan's `_Split.work` and
# `_Split.supply`, `companion.Companion.cost`, `subshift._walks`,
# `subshift._enumeration_cost`): about 5 s at 4.4-5.3 ns a unit, the unit of
# every price.  Read at call time, so that one value governs every guard.
COST_CAP = 10**9

# Units of the companion walk's interpreted work: one step, product or pass
# of a pseudo-remainder, and one coefficient.
_CALL = 250
_TERM = 25


def _mul_cost(words: float) -> float:
    """Units of one product of integers of `words` 64-bit words (Karatsuba)."""
    return 8 * max(words, 1.0) ** 1.585


def walk_price(degree: int, taps: int, gap: int, words: float) -> tuple:
    """(units of gap steps, of t_gap by squares and one product) of the
    walk `companion.Companion.walk` for p of degree D > 0 with ``taps``
    nonzero terms below lc, t of ``words`` words."""
    steps = gap * (_CALL + (degree + taps) * (_TERM + words))
    # a product is D^2 products and D passes by p; the last square has half
    # t_n's words, all before it half its cost, the last product two
    calls = (gap.bit_length() + 1) * (2 * degree * degree * _TERM + (degree + 1) * _CALL)
    return steps, calls + degree * degree * (3.5 * _mul_cost(words / 2) + 2 * words)


# ---------------------------------------------------------------------------
# the modular kernel: primes below 2^31, batched elimination, CRT

# Primes lie in (2^30, 2^31): residues below 2^31 keep every product of two
# below 2^62 in int64, and each prime adds at least 30 bits to the CRT
# modulus.
_CHAR_PRIME_FLOOR = 2**30
_CHAR_PRIME_CEIL = 2**31

# Residues per chunk of primes (primes x blocks x rows x columns), which
# keeps the numpy temporaries near half a megabyte (or one prime's worth,
# if larger).
_CHAR_BLOCK = 2**16

# Numbers per sieve segment, 2^14 of them odd, so that (2^30, 2^31) is 2^15
# whole segments.
_SIEVE_SEGMENT = 2**15

# Sieving primes below this cross off their multiples one slice each; the
# others, with at most 32 odd multiples in a segment, cross them off at once.
_SIEVE_SLICED = 512


class _PrimePool:
    """The primes in (2^30, 2^31) in descending order, sieved lazily.

    Each segment [floor - 2^15, floor) below the current floor is sieved by
    the odd primes up to sqrt(2^31) (Crandall-Pomerance, Prime Numbers, 3.2),
    an exact primality proof for every number in it.  ``segments[i]`` holds
    the primes of the i-th segment from the top, as an int32 array.
    """

    def __init__(self):
        root = math.isqrt(_CHAR_PRIME_CEIL - 1)
        sieve = np.ones(root + 1, dtype=bool)
        sieve[:2] = False
        for i in range(2, math.isqrt(root) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        odd = np.flatnonzero(sieve)[1:]
        self._sliced = odd[odd < _SIEVE_SLICED].tolist()
        self._batched = odd[odd >= _SIEVE_SLICED]
        self._halves = (self._batched + 1) // 2  # the inverses of 2
        self._odd = np.empty(_SIEVE_SEGMENT // 2, dtype=bool)
        self.segments: List[np.ndarray] = []
        self.floor = _CHAR_PRIME_CEIL

    def grow(self) -> None:
        """Sieve the segment below the floor and lower the floor past it."""
        lo = self.floor - _SIEVE_SEGMENT
        first = lo + 1  # odd[i] stands for first + 2 i
        odd = self._odd
        odd[:] = True
        for p in self._sliced:
            # first + 2 i = 0 (mod p) at i = -first / 2 (mod p)
            odd[-first * (p + 1) // 2 % p :: p] = False
        p = self._batched
        start = (p - first % p) * self._halves % p
        counts = np.maximum((len(odd) - 1 - start) // p + 1, 0)
        ends = np.cumsum(counts)
        # the multiples of each p, as one arithmetic run per p
        hits = np.repeat(start - p * (ends - counts), counts)
        hits += np.repeat(p, counts) * np.arange(ends[-1])
        odd[hits] = False
        primes = self.floor - 1 - 2 * np.flatnonzero(odd[::-1])
        self.segments.append(primes.astype(np.int32))  # 2^31 - 1 fits
        self.floor = lo


# made on the first call of _character_primes, so nothing is sieved at import
_PRIME_POOL: Optional[_PrimePool] = None

# m -> (primes = 1 mod m found so far, in descending order; the pool segment
# and the offset in it where the search goes on)
_CHAR_PRIMES: dict = {}


def _character_primes(m: int, count: int) -> List[int]:
    """The `count` largest primes p = 1 (mod m) in (2^30, 2^31), filtered
    from the shared pool."""
    global _PRIME_POOL
    found, segment, offset = _CHAR_PRIMES.get(m, ([], 0, 0))
    if len(found) >= count:
        return found[:count]
    # the odd candidates 1 + j lcm(2, m) in the range
    step = math.lcm(2, m)
    candidates = (_CHAR_PRIME_CEIL - 2) // step - (_CHAR_PRIME_FLOOR - 1) // step
    if count > candidates:
        raise ResourceGuardError(
            f"{count} primes = 1 mod {m} needed, only {candidates} candidates "
            "lie in (2^30, 2^31)"
        )
    if _PRIME_POOL is None:
        _PRIME_POOL = _PrimePool()
    pool = _PRIME_POOL
    while len(found) < count:
        if segment == len(pool.segments):
            if pool.floor == _CHAR_PRIME_FLOOR:
                raise ResourceGuardError(
                    f"{count} primes = 1 mod {m} needed, only {len(found)} lie in (2^30, 2^31)"
                )
            pool.grow()
        primes = pool.segments[segment][offset:]
        # only the primes needed, so the cache holds no more than callers asked
        hits = np.flatnonzero(primes % m == 1 % m)[: count - len(found)]
        found += primes[hits].tolist()
        if len(found) < count:
            segment, offset = segment + 1, 0
        else:
            offset += int(hits[-1]) + 1
        _CHAR_PRIMES[m] = (found, segment, offset)
    return found[:count]


def _crt_prime_count(bound: int, power: int = 2) -> int:
    """How many primes above 2^30 a CRT lift of x needs, given
    |x|^power <= bound.

    n such primes have a product P with P^power > 2^(30 power n) >=
    2^power bound, hence P > 2 |x|.  A d x d group circulant has
    det^2 <= (sum c^2)^d (Hadamard), since every row is a permutation of
    fhat.
    """
    return -(-(bound << power).bit_length() // (30 * power))


def _power_bits(base: int, d: int) -> int:
    """(base ** d).bit_length(), base >= 0 and d >= 1, without the power:
    square and multiply keeps lo 2^shift <= base^e <= hi 2^shift, lo and hi
    cut to `precision` bits (rounded down and up), and the precision doubles
    until their bit lengths agree, and so agree with that of base^d."""
    precision = 64
    while True:
        lo, hi, shift = 1, 1, 0
        for bit in bin(d)[2:]:
            lo, hi = lo * lo * base ** int(bit), hi * hi * base ** int(bit)
            cut = max(0, hi.bit_length() - precision)
            lo, hi, shift = lo >> cut, -(-hi >> cut), 2 * shift + cut
        if lo.bit_length() == hi.bit_length():
            return lo.bit_length() + shift
        precision *= 2


def _power_prime_count(base: int, d: int, power: int = 2) -> int:
    """_crt_prime_count(base ** d, power) without the power, from 2^(b - 1),
    or 0, of the same bit length b (`_power_bits`)."""
    return _crt_prime_count(1 << _power_bits(base, d) >> 1, power)


def _crt_symmetric(residues: Sequence[int], primes: Sequence[int]) -> int:
    """The integer in (-P/2, P/2] with the given residues, P = prod(primes)."""
    residue = 0
    modulus = 1
    for r, p in zip(residues, primes):
        t = (r - residue) * pow(modulus, -1, p) % p
        residue += modulus * t
        modulus *= p
    if residue > modulus // 2:
        residue -= modulus
    return residue


def _det_mod_batched(a: np.ndarray, mods: np.ndarray) -> tuple:
    """(det a[b] mod mods[b], rank of a[b] mod mods[b]) for a stack of square
    int64 matrices, eliminated in place.

    Fraction-free elimination with a pivot chosen per matrix: the rows
    below pivot c become piv_c * row - a[i][c] * pivot row, which scales
    the determinant by piv_c^(m-1-c).  That scale is the product of the
    prefix products piv_0 ... piv_c for c < m - 1, divided out once at the
    end, so no inverse is taken per column.  One pivot rule: a pivot 0 at
    (c, c) is swapped for the first nonzero entry of the trailing block,
    first by column and then by row, and each row or column swap flips the
    sign.  A nonsingular matrix finds that entry in column c, so only a
    singular one swaps columns.  A trailing block of zeros keeps pivot 0
    and drops the rank by one, so the rank is the number of nonzero
    pivots.  Residues stay below 2^31, so every product of two stays
    inside int64.  The inverse of the scale is taken only where it is not
    1 (never for a 1 x 1 matrix).
    """
    n, m, _ = a.shape
    diag = np.ones(n, dtype=np.int64)
    scale = np.ones(n, dtype=np.int64)
    rank = np.full(n, m, dtype=np.int64)
    flips = np.zeros(n, dtype=bool)
    for c in range(m):
        piv = a[:, c, c]  # a view: it follows the swaps below
        if not piv.all():
            b = np.flatnonzero(piv == 0)
            # each trailing block's entries in column-major order
            live = a[b, c:, c:].transpose(0, 2, 1).reshape(b.size, -1) != 0
            j, i = np.divmod(np.argmax(live, axis=1), m - c)
            found = live.any(axis=1)
            rank[b[~found]] -= 1
            b, i, j = b[found], c + i[found], c + j[found]
            a[b, c:, c], a[b, c:, j] = a[b, c:, j], a[b, c:, c]
            a[b, c, c:], a[b, i, c:] = a[b, i, c:], a[b, c, c:]
            flips[b] ^= (i != c) != (j != c)
        diag = diag * piv % mods
        if c + 1 == m:
            break
        scale = scale * diag % mods
        trailing = a[:, c + 1 :, c + 1 :]
        trailing *= piv[:, None, None]
        trailing -= a[:, c + 1 :, c, None] * a[:, None, c, c + 1 :]
        trailing %= mods[:, None, None]
    # a zero scale comes with a zero det, and a scale of 1 needs no inverse
    rescale = np.flatnonzero(scale > 1)
    inv = [pow(int(s), -1, int(p)) for s, p in zip(scale[rescale], mods[rescale])]
    diag[rescale] = diag[rescale] * np.array(inv, dtype=np.int64) % mods[rescale]
    return np.where(flips, (mods - diag) % mods, diag), rank


@dataclass(frozen=True)
class SolutionCount:
    """Number of solutions of M h = 0 with h in (R/Z)^d.

    ``value`` is the exact count when finite (always >= 1, the zero
    solution); ``value is None`` marks an infinite solution group and
    ``nullity`` carries the rank deficiency behind it.
    """

    value: Optional[int]
    nullity: int = 0

    def __post_init__(self):
        if self.value is not None:
            if self.value < 1:
                raise ValueError("finite solution count must be >= 1")
            if self.nullity != 0:
                raise ValueError("finite count cannot carry a nullity")
        elif self.nullity < 1:
            raise ValueError("infinite count requires nullity >= 1")

    @property
    def is_finite(self) -> bool:
        return self.value is not None


# ---------------------------------------------------------------------------
# the split over an abelian subgroup


def _prime_factors(n: int) -> List[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _totient(n: int) -> int:
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def _root_of_unity(m: int, p: int, factors: Sequence[int]) -> int:
    """A primitive m-th root of unity modulo a prime p = 1 (mod m), given the
    prime factors of m."""
    a = 2
    while True:
        w = pow(a, (p - 1) // m, p)
        if all(pow(w, m // ell, p) != 1 for ell in factors):
            return w
        a += 1


def _root_powers(orders: Sequence[int], primes: Sequence[int]) -> np.ndarray:
    """omega_r^t mod p_r for t = 0..max(orders)-1, one row r per prime p_r,
    omega_r a primitive orders[r]-th root of unity (p_r = 1 mod orders[r])."""
    width = max(orders)
    factors = {k: _prime_factors(k) for k in set(orders)}
    roots = [_root_of_unity(k, p, factors[k]) for k, p in zip(orders, primes)]
    mods = np.array(primes, dtype=np.int64)[:, None]
    step = np.array(roots, dtype=np.int64)[:, None]
    powers = np.ones((len(primes), width), dtype=np.int64)
    filled = 1
    while filled < width:
        take = min(filled, width - filled)
        powers[:, filled : filled + take] = powers[:, :take] * step % mods
        step = step * step % mods
        filled += take
    return powers


def _row_products(values: np.ndarray, mods: np.ndarray) -> List[int]:
    """Product of each row mod its prime, multiplied pairwise as a tree."""
    mods = mods[:, None]
    while values.shape[1] > 1:
        half = values.shape[1] // 2
        head = values[:, :half] * values[:, half : 2 * half] % mods
        if values.shape[1] % 2:
            head[:, :1] = head[:, :1] * values[:, -1:] % mods
        values = head
    return values[:, 0].tolist()


# Units of the fixed work of one plan in `_split_det`: a plan takes at least
# one round, of about 100 us of numpy calls.
_SPLIT_PLAN = 20_000


class _Split:
    """One priced plan of `_split_det`, the one place a split is priced: its
    prime budgets, work and supply, read once from the plan, and its
    progress.

    The split draws at most ``det_need`` primes: the CRT count of Hadamard's
    bound on |det M|, or on a symmetric plan the largest of those of the
    bounds on |H| and |S| and of the widest rank budget,
    l1^(m ceil(phi(k) / 2)), k = exp A (see `_split_det`).  Each prime costs,
    per orbit representative, an elimination of m^3 and a block built from
    terms x m^2 entries, plus 16 for roots and CRT, and the plan's rounds
    have a fixed cost: ``work`` = det_need x orbits x (m^3 + terms m^2 +
    16) + _SPLIT_PLAN, in units of about 5 ns.  Serving the primes takes a
    pool of about det_need x phi(k) primes, 64 units each to sieve
    (``supply``).  `_counts` holds both against COST_CAP.

    The progress: the primes drawn, the residues of H and of S at them, and
    the orbits that may still be short of full rank (``short``, every orbit
    before the first prime; empty once the plan is full) with their largest
    ranks so far (``best``).  The orbits built each round are ``reps``
    (None: every character), ``orbits`` of them, whose exponents in H are
    ``h_sizes`` (None: 1 each).  Every plan lifts |S| |H|^e: S takes
    residues at its first ``s_need`` primes, the CRT count of
    |S| <= l1^(m #real), each orbit's exponent in it ``s_sizes``.  A
    symmetric plan has e = 2; any other has e = 1 and s_need = 0, so S = 1
    and H = det M."""

    def __init__(self, plan: SplitPlan):
        self.plan = plan
        self.k = math.lcm(*plan.moduli)
        terms, m = plan.cols.shape
        self.m, self.d = m, math.prod(plan.moduli) * m
        self.orbits = plan.orbits
        self.l1 = l1 = sum(abs(c) for c in plan.coeffs)
        squares = sum(c * c for c in plan.coeffs)
        phi = _totient(self.k)
        self.reps, self.h_sizes, self.s_sizes = plan.orbit_reps, plan.orbit_sizes, None
        self.e, self.s_need = 1, 0
        self.det_need = _power_prime_count(squares, self.d)
        if plan.symmetric:
            # the real characters, chi_j with 2 j = 0 componentwise mod the
            # moduli: an orbit's are all real or none is, as the normaliser
            # acts by automorphisms
            coords = np.unravel_index(plan.orbit_reps, plan.moduli)
            real = np.logical_and.reduce([2 * j % n == 0 for j, n in zip(coords, plan.moduli)])
            self.h_sizes = np.where(real, 0, plan.orbit_sizes // 2)
            self.s_sizes = np.where(real, plan.orbit_sizes, 0)
            # l1 = sum |fhat| bounds every eigenvalue of M
            self.e, self.s_need = 2, _power_prime_count(l1, m * int(self.s_sizes.sum()), 1)
            self.det_need = max(
                _power_prime_count(squares, self.d, 4),
                min(self.det_need, self.s_need),
                _power_prime_count(l1, m * ((phi + 1) // 2), 1),
            )
        self.work = self.det_need * self.orbits * (m**3 + terms * m * m + 16) + _SPLIT_PLAN
        self.supply = 64 * self.det_need * phi
        self.primes: List[int] = []
        self.residues: List[int] = []
        self.s_residues: List[int] = []
        self.short = slice(0, self.orbits)
        self.best = 0
        self.full = False
        # the degree of the field of the largest short block's rank witness
        # (phi(o), or phi(o)/2 on a symmetric plan); 1 before any prime
        self.phi = 1
        self.block = max(1, _CHAR_BLOCK // (self.orbits * m * m))

    def chunk(self) -> int:
        """How many primes this round draws: up to the current need (see
        `_split_det`), at most a chunk's worth."""
        need = self.det_need
        if not self.full:
            # n primes above 2^30 have a product above 2^(30 n)
            need = min(need, -(-(self.l1 ** (self.m * self.phi)).bit_length() // 30))
        elif len(self.s_residues) < self.s_need:
            # the real blocks are built only until S has its primes
            need = min(need, self.s_need)
        return max(0, min(need - len(self.primes), self.block))


def _split_det(splits: Sequence[_Split]) -> List[tuple]:
    """(|det M|, rank M) for each priced split plan over an abelian subgroup A.

    With k = exp(A), omega a primitive k-th root of unity mod a prime
    p = 1 (mod k), and chi_j(a) = omega^(sum_l j_l a_l k / n_l) the
    characters of A, M is similar mod p to block-diag(B_j) with

        B_j[i][cols[t, i]] += fhat[c_t] chi_j(coords[t, i]),

    so det M = prod_j det B_j and rank_p M = sum_j rank_p B_j.  The blocks
    of one orbit of the normaliser are similar, over Z[omega] and modulo
    every prime, so only the plan's orbit representatives are built, and
    each one's determinant and rank count once per character of its orbit.

    The rank is certified block by block.  The entries of B_j lie in
    Z[zeta_o], o = k / gcd(k, the exponents of omega in B_j) (a divisor of
    the order of chi_j), and reduction mod p is a ring map whose kernel is
    a prime of norm p.  Every row of B_j holds each folded term once, so a
    nonzero R x R minor D of B_j has |sigma(D)| <= l1^m in every embedding
    (l1 = sum |fhat|, m = d/|A|), hence 1 <= |N(D)| <= l1^(m phi(o)), and
    every prime with rank_p B_j < R divides N(D).  So rank B_j = max_p
    rank_p B_j once the primes' product exceeds l1^(m phi(o)); the
    determinant's primes certify every minor of M too, so the smaller
    budget suffices.  Each orbit representative keeps its own budget, as
    similar blocks have equal rank at every prime.

    When f = f* (a ``symmetric`` plan), M is real symmetric, so each block
    is Hermitian and its determinant lies in the real subfield: the blocks
    of chi and chi^-1 have equal determinants over Z[omega], and the orbits
    come closed under chi -> chi^-1.  Let H be the product of det B_chi over
    one chi of each pair chi != chi^-1, each non-real orbit counting half
    its size, and S the product over the real characters (chi^2 = 1).  Both
    are Galois-invariant, so integers, and |det M| = |S| H^2.  As |S| >= 1
    when det M != 0, |H| <= (sum c^2)^(d/4), half the determinant's bits;
    every eigenvalue of M is at most l1, so |S| <= l1^(m #real), and
    |S| <= |det M| too.  The lift is |S| |H|^e for every plan, e = 2 on a
    symmetric plan; any other has e = 1 and S = 1, from no primes, so
    H = det M.  The rank witness halves as well: a Hermitian block of rank
    R has a nonzero real coefficient of x^(m-R) in its characteristic
    polynomial, a sum of its R x R principal minors and the product of its
    nonzero eigenvalues, so of norm at most l1^(m phi(o)/2) over the real
    subfield (l1^m when o <= 2).

    Each plan's primes are drawn in rounds.  The first round meets the
    budget of phi = 1, the least any block can need.  While some block has
    been short of full rank at every prime so far (so its det, and det M,
    is 0 there), a round draws up to the budget of the largest phi(o) among
    those blocks; once none is, up to the plan's ``det_need`` (which covers
    every rank budget of a symmetric plan, see `_Split`),
    and the products H and S are lifted by CRT.  S takes residues at its
    first primes only, as many as its own bound needs (or all drawn, if
    fewer), and a full plan's round stops there while S is short: once S
    has them, the later rounds build only the non-real orbits, those of H.
    A round draws at most a chunk of primes per plan, sized by the plan's
    blocks, so each plan draws the same primes as it would alone.

    Within a round, consecutive plans of one block size m are eliminated as
    one group (`_split_groups`): their rows (one per prime) are padded to
    the group's largest exponent k, orbit count and term count, a padded
    orbit counting as a block of det 1 at full rank and a padded term
    having weight 0.  A group takes one table of root powers, per slice of
    terms one product of its terms' coordinates with its characters' (the
    exponents of omega) and one gather of their values, one batched
    elimination when m > 1 (a 1 x 1 block is its own determinant) and one
    product tree for H; each symmetric plan adds its own tree for S.
    """
    while True:
        # a plan without terms needs no prime
        todo = [(s, count) for s in splits if (count := s.chunk())]
        if not todo:
            break
        for group in _split_groups(todo):
            _split_round(group)
    out = []
    for s in splits:
        if not s.plan.coeffs:
            out.append((0, 0))
        elif not s.full:
            sizes = 1 if s.plan.orbit_sizes is None else s.plan.orbit_sizes[s.short]
            out.append((0, s.d - int(((s.m - s.best) * sizes).sum())))
        else:
            # S takes the first len(s_residues) primes; none lift to 0, and
            # S = 1 then, as S != 0 on a full plan
            h = abs(_crt_symmetric(s.residues, s.primes))
            out.append(((abs(_crt_symmetric(s.s_residues, s.primes)) or 1) * h**s.e, s.d))
    return out


def _split_groups(todo: list) -> list:
    """The (split, primes) pairs of a round, cut into runs of one block size
    m.  A run holds at most _CHAR_BLOCK residues (rows x largest orbit
    count x m^2), unless one plan's chunk alone is larger, and padding at
    most doubles any plan's residues."""
    groups: list = []
    for s, count in todo:
        last = groups[-1] if groups else []
        if last and last[0][0].m == s.m:
            orbits = [t.orbits for t, _ in last] + [s.orbits]
            rows = sum(c for _, c in last) + count
            if rows * max(orbits) * s.m**2 <= _CHAR_BLOCK and max(orbits) <= 2 * min(orbits):
                last.append((s, count))
                continue
        groups.append([(s, count)])
    return groups


def _split_round(group: list) -> None:
    """One round of `_split_det` for a group of (split, primes) pairs of one
    block size m.

    The terms' exponents and character values are built a slice of terms
    at a time, each slice's values at most _CHAR_BLOCK (or one term's, if
    larger), so the temporaries do not grow with the number of terms.
    """
    splits = [s for s, _ in group]
    m = splits[0].m
    plans = len(splits)
    orbits = max(s.orbits for s in splits)
    terms = max(len(s.plan.coeffs) for s in splits)
    chunks = [_character_primes(s.k, len(s.primes) + c)[len(s.primes) :] for s, c in group]
    primes = [p for chunk in chunks for p in chunk]
    rows = len(primes)
    counts = [len(chunk) for chunk in chunks]
    owner = np.repeat(np.arange(plans), counts)
    mods = np.array(primes, dtype=np.int64)
    powers = _root_powers([s.k for s, c in zip(splits, counts) for _ in range(c)], primes)
    weights = np.zeros((rows, terms), dtype=np.int64)
    # entry (i, cols[t, i]) of a flattened m x m block; a padded term adds 0
    # on the diagonal
    cols = np.tile(np.arange(m), (plans, terms, 1))
    # scaled[t, i] @ chars[:, j]: chi_j at the A-coordinates of c_t^-1 r_i, as
    # a power of omega, for the orbit representatives chi_j; padding adds 0
    rank = max(len(s.plan.moduli) for s in splits)
    scaled = np.zeros((plans, terms, m, rank), dtype=np.int64)
    chars = np.zeros((plans, rank, orbits), dtype=np.int64)
    starts = np.cumsum([0] + counts[:-1])
    for i, (s, chunk) in enumerate(zip(splits, chunks)):
        coeffs, moduli = s.plan.coeffs, s.plan.moduli
        weights[starts[i] : starts[i] + len(chunk), : len(coeffs)] = [
            [c % p for c in coeffs] for p in chunk
        ]
        cols[i, : len(coeffs)] = s.plan.cols
        scaled[i, : len(coeffs), :, : len(moduli)] = s.plan.coords * [s.k // n for n in moduli]
        every = np.indices(moduli, dtype=np.int64).reshape(len(moduli), -1)
        chars[i, : len(moduli), : s.orbits] = every[:, slice(None) if s.reps is None else s.reps]
    ks = np.array([s.k for s in splits])[:, None, None, None]
    entries = cols + np.arange(m) * m
    # a term on the diagonal of every plan's blocks (every term on a torus)
    diagonal = (cols == np.arange(m)).all(axis=(0, 2))
    row = np.arange(rows)[:, None]
    orbit = np.arange(orbits)[:, None]
    blocks = np.zeros((rows, orbits, m * m), dtype=np.int64)
    span = max(1, _CHAR_BLOCK // (rows * orbits * m))
    for lo in range(0, terms, span):
        index = (scaled[:, lo : lo + span] @ chars[:, None] % ks).swapaxes(2, 3).reshape(plans, -1)
        # each plan's rows take whole columns of their own root powers, in place:
        # "clip" skips the copy that a bounds check makes, and every index is < k
        part = np.empty((rows, index.shape[1]), dtype=np.int64)
        for i, (a, c) in enumerate(zip(starts, counts)):
            np.take(powers[a : a + c], index[i], axis=1, out=part[a : a + c], mode="clip")
        part = part.reshape(rows, -1, orbits, m)
        part *= weights[:, lo : lo + span, None, None]
        part %= mods[:, None, None, None]
        on = diagonal[lo : lo + span]
        # the diagonal terms added at once to a strided view of the diagonals
        blocks[:, :, :: m + 1] += part.sum(axis=1, where=on[:, None, None])
        for t in np.flatnonzero(~on):
            # each row at its own plan's entries
            blocks[row[:, :, None], orbit, entries[owner, lo + t][:, None, :]] += part[:, t]
    blocks %= mods[:, None, None]
    pad = np.arange(orbits) >= np.array([s.orbits for s in splits])[owner, None]
    if m == 1:
        # a 1 x 1 block is its own determinant, of rank 1 unless it is 0
        dets = blocks.reshape(rows, orbits)
        dets[pad] = 1
        ranks = (dets != 0).astype(np.int64)
    else:
        blocks[pad] = np.eye(m, dtype=np.int64).ravel()
        dets, ranks = _det_mod_batched(blocks.reshape(-1, m, m), np.repeat(mods, orbits))
        dets, ranks = dets.reshape(rows, orbits), ranks.reshape(rows, orbits)
    peaks = np.maximum.reduceat(ranks, starts, axis=0)
    products = None
    for i, (s, chunk) in enumerate(zip(splits, chunks)):
        s.primes += chunk
        if not s.full:
            best = np.maximum(s.best, peaks[i, s.short])
            short = best < m
            s.short, s.best = np.arange(s.orbits)[s.short][short], best[short]
            s.full = not s.short.size
            if not s.full:
                expo = scaled[i] @ chars[i][:, s.short] % s.k
                gcds = np.gcd(np.gcd.reduce(expo, axis=(0, 1)), s.k)
                phi = max(_totient(s.k // g) for g in set(gcds.tolist()))
                s.phi = (phi + 1) // 2 if s.plan.symmetric else phi
        if products is None:
            products = _row_products(_characters(dets, splits, owner), mods)
        own = slice(starts[i], starts[i] + len(chunk))
        s.residues += products[own]
        if len(s.s_residues) < s.s_need:
            real = np.repeat(dets[own, : s.orbits], s.s_sizes, axis=1)
            s.s_residues += _row_products(real, mods[own])
        if s.plan.symmetric and s.full and len(s.s_residues) >= s.s_need:
            live = np.flatnonzero(s.h_sizes)
            if 0 < live.size < s.orbits:
                # S is lifted: the later primes build the orbits of H alone
                s.reps, s.h_sizes, s.orbits = s.reps[live], s.h_sizes[live], live.size


def _characters(dets: np.ndarray, splits: list, owner: np.ndarray) -> np.ndarray:
    """The block determinants of a group's rows, each repeated as often as
    its orbit enters H (once per character, but for a symmetric plan); a row
    shorter than the group's widest is filled with 1s, as its padded orbits
    are."""
    if all(s.h_sizes is None or (s.h_sizes == 1).all() for s in splits):
        # every orbit one character (every torus plan): nothing to repeat
        return dets
    sizes = np.zeros((len(splits), dets.shape[1] + 1), dtype=np.int64)
    for i, s in enumerate(splits):
        sizes[i, : s.orbits] = 1 if s.h_sizes is None else s.h_sizes
    sizes = sizes[owner]
    total = sizes.sum(axis=1)
    # at least one column: a symmetric plan with only real characters has H = 1
    sizes[:, -1] = max(total.max(), 1) - total
    ones = np.ones((len(dets), 1), dtype=np.int64)
    flat = np.repeat(np.hstack([dets, ones]).ravel(), sizes.ravel())
    return flat.reshape(len(dets), -1)


# ---------------------------------------------------------------------------
# counts, priced and routed


def fix_count(f: GroupRingElement, q: Quotient) -> SolutionCount:
    """Number of points of the principal algebraic action fixed by Gn.

    Pulling a fixed point back along the quotient map identifies the fixed
    set with the solutions of the convolution matrix on (R/Z)^d, so the
    count is computed there exactly: on a rank-1 torus by a resultant
    (`companion`) or by the split, whichever `_counts` prices lower (the
    split priced only when the walk's price passes its floor), and on
    any other quotient by its split plan over an abelian subgroup (the whole
    group on a torus, a greedily grown one on an explicit quotient), whose
    one elimination of a block per orbit of characters gives the
    determinant and the rank, so the nullity d - rank when the determinant
    is 0.  Refused when its estimated cost, that of the walk or of the one
    priced plan (`_Split`), exceeds COST_CAP.
    """
    [(det, rank)] = _counts(f, [q])[1]
    return _solution(q, det, rank)


def _counts(f: GroupRingElement, quotients: Iterable[Quotient]) -> tuple:
    """(the quotients drawn, (|det M|, rank M) at each), the quotients
    drawn one at a time in nondecreasing size and each priced as it is
    drawn, before any is counted.

    Every split is priced once, as a `_Split` of the plan it would run, and
    any quotient but a rank-1 torus as it is drawn: the lot is refused at
    the first whose work takes the running total, or whose prime supply,
    over COST_CAP.  A rank-1 trace prices the companion walk as each
    quotient is drawn (`companion.Companion.cost`), and the split only
    where its total decides something: once the walk's passes the cap, so
    that the trace is refused at the first quotient where neither total is
    within it, and at the end, unless the walk's is within the split's
    floor of _SPLIT_PLAN per quotient not yet priced.  The trace takes the
    route of the lower total, as `subshift._walks` picks its route, and its
    counts run as one walk or as one `_split_det` over the priced
    `_Split`s.  Of a quotient, only its size, rank, label and split
    plan are read.
    """
    companion = None
    if f.rank == 1 and not f.is_zero:
        # imported here, so that only a rank-1 count loads the walk's code; a
        # D whose count alone, over D^2 coefficient updates, passes the cap
        # is never walked, nor its p written out densely
        from .companion import Companion, count_floor

        lo, hi = min(f.terms), max(f.terms)
        if count_floor(hi - lo) <= COST_CAP:
            companion = Companion([f.terms.get(e, 0) for e in range(lo, hi + 1)])
    # the split's priced plans, of kept[:len(splits)]
    kept, splits = [], []
    spent = walked = supply = 0
    # the quotient at which each rank-1 route passed the cap, and is dropped
    split_out = walk_out = None

    def price_split() -> None:
        """Price the split of the kept quotients not yet priced, in order,
        until its total passes the cap."""
        nonlocal spent, supply, split_out
        while len(splits) < len(kept) and not split_out:
            q = kept[len(splits)]
            s = _Split(q.split_plan(f))
            splits.append(s)
            spent += s.work
            supply = max(supply, s.supply)
            split_out = q.label if max(spent, s.supply) > COST_CAP else None

    for q in quotients:
        last = kept[-1].size if kept else 0
        if q.size < last:
            raise ValueError("quotients must be ordered by nondecreasing size")
        if f.rank != q.rank:
            raise ValueError(f"element/quotient mode mismatch (ranks {f.rank} and {q.rank})")
        kept.append(q)
        if companion is None:
            price_split()
            if split_out:
                raise _refusal(q, f"work {spent} so far, prime supply {splits[-1].supply}")
        elif walk_out is None:
            walked += math.ceil(companion.cost(q.size - last, q.size))
            walk_out = q.label if walked > COST_CAP else None
        if walk_out:
            price_split()
            if split_out:
                raise _refusal(q, f"companion work {walked} at {walk_out}, split work {spent} "
                               f"and prime supply {supply} at {split_out}")
    if not kept:
        raise ValueError("at least one quotient required")
    if companion is None:
        return kept, _split_det(splits)
    # each plan left unpriced costs the split at least _SPLIT_PLAN, so the
    # walk is taken unpriced while within that floor
    if walked > spent + _SPLIT_PLAN * (len(kept) - len(splits)):
        price_split()
        if not split_out and walked > spent:
            return kept, _split_det(splits)
    return kept, companion.counts([q.size for q in kept])


def _refusal(q: Quotient, detail: str) -> ResourceGuardError:
    return ResourceGuardError(
        f"estimated cost at {q.label or f'd={q.size}'} exceeds the cap {COST_CAP}: {detail}"
    )


def _solution(q: Quotient, det: int, rank: int) -> SolutionCount:
    if det:
        return SolutionCount(value=det)
    return SolutionCount(value=None, nullity=q.size - rank)


def log_big_int(n: int) -> float:
    """log of a positive integer of arbitrary size, relative error < 1e-15.

    Uses the top 53 bits as an exact float mantissa plus bit_length * log 2,
    so values far beyond float range are handled without overflow.
    """
    if n <= 0:
        raise ValueError("log_big_int requires a positive integer")
    if n < 2**53:
        return math.log(n)
    shift = n.bit_length() - 53
    return math.log(n >> shift) + shift * LOG2


# ---------------------------------------------------------------------------
# entropy traces


class TraceRecord(NamedTuple):
    label: str
    d: int
    log_fix_count: float
    h_n: float


class SkippedQuotient(NamedTuple):
    label: str
    d: int
    nullity: int


@dataclass
class EntropyTrace:
    """Per-quotient entropy values h_n = log|Fix| / d for a fixed f.

    Quotients with an infinite fixed-point group are recorded under
    ``skipped`` with their nullity and never averaged into the trace.
    ``caveats`` lists support elements that were seen to fall into the
    kernel of some quotient map (the quotient chain then does not separate
    them, so the limit statement need not apply).
    """

    f_description: str
    records: List[TraceRecord] = field(default_factory=list)
    skipped: List[SkippedQuotient] = field(default_factory=list)
    reference_value: Optional[float] = None
    caveats: List[str] = field(default_factory=list)

    @property
    def residual(self) -> Optional[float]:
        if self.reference_value is None or not self.records:
            return None
        return abs(self.records[-1].h_n - self.reference_value)


def entropy_trace(
    f: GroupRingElement,
    quotients: Iterable[Quotient],
    reference: Optional[float] = None,
) -> EntropyTrace:
    """Evaluate h_n = log|Fix| / |G/Gn| along a chain of finite quotients.

    The quotients, any iterable, are drawn one at a time and must come in
    nondecreasing size.  Quotients where the fixed-point group is infinite
    are skipped with their nullity.  Every quotient is estimated as it is
    drawn, before any is counted, and the trace is refused, before its first
    prime or power and before the next quotient is drawn, at the first
    quotient whose estimated work would take the running total over
    COST_CAP (on rank 1, where neither route's total is within it; the
    split's is priced only once the walk's passes the cap, or at the end
    where its floor cannot rule it out; see `_counts`).  The counts then
    run as one walk through lc^n x^n mod p, a resultant at each size, or as
    one `_split_det` over the priced plans (`_Split`).  A plan
    holds its terms and its orbits (a torus plan its terms alone), and
    `_split_det` keeps per character only the orbits still short of full
    rank, so a long trace holds little more than its plans.  The caveats
    come from the quotients drawn, in order, each note once.
    """
    kept, counts = _counts(f, quotients)
    identity = identity_element(f.rank)
    support = [s for s in f.support() if s != identity]
    notes = (f"support element {s!r} lies in the kernel at {q.label}"
             for q in kept for s in support if q.index(s) == q.identity_index)
    trace = EntropyTrace(f.render(), reference_value=reference, caveats=list(dict.fromkeys(notes)))
    for q, split in zip(kept, counts):
        sc = _solution(q, *split)
        if sc.is_finite:
            log_fix = log_big_int(sc.value)
            trace.records.append(TraceRecord(q.label, q.size, log_fix, log_fix / q.size))
        else:
            trace.skipped.append(SkippedQuotient(q.label, q.size, sc.nullity))
    return trace
