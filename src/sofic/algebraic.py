"""Regular representation matrices over finite quotients and exact counting.

For f with integer coefficients and a finite quotient G/Gn of size d, the
convolution operator of f on the quotient's group algebra is the d x d
integer matrix

    M[a][b] = fhat[a * b^-1],   fhat[c] = sum of f_s over s with image c,

a group-circulant.  Solutions of M h = 0 with h in (R/Z)^d form a compact
group isomorphic to (R/Z)^nullity x prod Z/d_i, where d_i are the Smith
invariant factors of M; when det M != 0 the solution count is |det M|
exactly.  Normalizing, h_n = log|count| / d is the per-quotient entropy
value, and exp(log|det M| / d) is the finite-dimensional determinant with
respect to the normalized trace.

Every count is exact over arbitrary-precision integers, by one route per
quotient family:

* Torus quotients Z^r / (n_1 Z x ... x n_r Z) are abelian, so the
  characters diagonalise M and det M = prod_chi F(chi) with
  F(chi) = sum_c fhat[c] chi(c) (the periodic-point formula of
  Lind-Schmidt-Ward).  With m = lcm(n_i), every character value lies in
  Z[zeta_m], and modulo a prime p = 1 (mod m) it becomes an element of
  F_p.  The product is taken modulo enough such primes in (2^30, 2^31)
  to lift it by CRT against Hadamard's bound: every row of M is a
  permutation of fhat, so (det M)^2 <= (sum_c fhat[c]^2)^d.  The nullity
  is the number of characters with F(chi) = 0, each tested exactly in
  Z[t] by divisibility by a cyclotomic polynomial; no matrix is built.
* Explicit quotients split M over a cyclic subgroup <g>, g of maximal
  order k: right translation by g commutes with M, so modulo a prime
  p = 1 (mod k) M is similar to k blocks of size d/k, one per k-th root
  of unity.  All blocks for a chunk of primes in (2^30, 2^31) are
  eliminated in one batched int64 pass, and the product of their
  determinants is lifted by CRT against the same bound.  The torus route
  is the case <g> = G of an abelian G.  When det M = 0 the dense matrix
  is built once, for its Smith normal form, which gives the nullity.

The dense route, ``count_solutions(regular_rep_matrix(f, q))`` with
fraction-free Bareiss elimination for modest dimensions and a multi-prime
modular/CRT elimination (float64 per prime) above the crossover, stays
public as the test oracle for both.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .groups import (
    ExplicitQuotient,
    GroupRingElement,
    Quotient,
    ResourceGuardError,
    TorusQuotient,
    identity_element,
    size_limit,
)

__all__ = [
    "NotInvertibleError",
    "RegularRepMatrix",
    "SolutionCount",
    "TraceRecord",
    "SkippedQuotient",
    "EntropyTrace",
    "regular_rep_matrix",
    "det_abs_exact",
    "smith_normal_form",
    "count_solutions",
    "fix_count",
    "fk_determinant_quotient",
    "entropy_trace",
    "log_big_int",
]

LOG2 = math.log(2.0)


def csv_field(value: str) -> str:
    """Quote a free-text CSV field only when it needs it (stable format)."""
    if any(c in value for c in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value

# Above this dimension det_abs_exact switches from Bareiss elimination to
# the modular/CRT path (same exact result, far less big-int growth).
BAREISS_CROSSOVER = 96


class NotInvertibleError(ValueError):
    """The regular representation matrix is singular at this quotient."""


@dataclass(frozen=True)
class RegularRepMatrix:
    """Integer matrix of the convolution operator of f on a finite quotient.

    ``entries`` is a dim x dim object-dtype array of Python ints; treat it
    as immutable.  ``provenance`` records (f description, quotient label).
    """

    dim: int
    entries: np.ndarray
    provenance: tuple

    def row_sums(self) -> list:
        return [int(sum(row)) for row in self.entries]

    def tolist(self) -> list:
        return [[int(v) for v in row] for row in self.entries]


def _check_quotient(f: GroupRingElement, q: Quotient, limit: Optional[int]) -> None:
    """Rank and size checks shared by every counting route, made before any work."""
    if f.rank != q.rank:
        raise ValueError(
            f"element/quotient mode mismatch (element rank {f.rank}, quotient rank {q.rank})"
        )
    d = q.size
    cap = size_limit(limit)
    if d * d > cap:
        raise ResourceGuardError(
            f"matrix with {d}x{d} entries exceeds size limit {cap}"
        )


def regular_rep_matrix(
    f: GroupRingElement, q: Quotient, limit: Optional[int] = None
) -> RegularRepMatrix:
    """Build the group-circulant matrix of f over the quotient q.

    Entry (a, b) equals fhat[a * b^-1] where fhat folds the coefficients of
    f along the fibers of the quotient map, so every row sums to the total
    coefficient sum of f.
    """
    _check_quotient(f, q, limit)
    d = q.size
    fhat: dict = {}
    for s, c in f.terms.items():
        idx = q.index(s)
        fhat[idx] = fhat.get(idx, 0) + c
    entries = np.full((d, d), 0, dtype=object)
    cols = np.arange(d, dtype=np.int64)
    for coset, value in fhat.items():
        if value == 0:
            continue
        rows = q.coset_translation_perm(coset)
        entries[rows, cols] = int(value)
    return RegularRepMatrix(dim=d, entries=entries, provenance=(f.render(), q.label))


def _as_rows(matrix) -> List[List[int]]:
    if isinstance(matrix, RegularRepMatrix):
        return matrix.tolist()
    if isinstance(matrix, np.ndarray):
        rows = matrix.tolist()
    else:
        rows = [list(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return [[int(v) for v in r] for r in rows]


def det_abs_exact(matrix) -> int:
    """|det M| as an exact nonnegative integer.

    Accepts a RegularRepMatrix or any square array-like of integers.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        return 1
    if _is_diagonal(rows):
        return abs(math.prod(rows[i][i] for i in range(n)))
    if n <= BAREISS_CROSSOVER:
        return abs(_det_bareiss(rows))
    return abs(_det_modular(rows))


def _is_diagonal(rows: List[List[int]]) -> bool:
    return all(
        v == 0 for i, row in enumerate(rows) for j, v in enumerate(row) if i != j
    )


def _det_bareiss(rows: List[List[int]]) -> int:
    """Fraction-free Bareiss elimination; all divisions are exact."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        piv = rows[k][k]
        rk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (piv * ri[j] - rik * rk[j]) // prev
            ri[k] = 0
        prev = piv
    return sign * rows[n - 1][n - 1]


def _hadamard_bits(rows: List[List[int]]) -> int:
    """Bit length of a bound on |det| by Hadamard's inequality, 0 for a zero row.

    |det|^2 is at most the product of the squared row norms, so
    isqrt(product) + 1 bounds |det| without any per-row rounding.
    """
    product = 1
    for row in rows:
        sq = sum(v * v for v in row)
        if sq == 0:
            return 0
        product *= sq
    return (math.isqrt(product) + 1).bit_length()


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin: bases 2, 7, 61 below 4,759,123,141
    # (Jaeschke 1993), the first twelve primes below 3.3e24.
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = (2, 7, 61) if n < 4_759_123_141 else _SMALL_PRIMES
    for a in bases:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIME_CACHE: List[int] = []

# Modular primes stay below 2^21 so residue products stay below 2^42 and a
# 64-wide panel of unreduced updates stays inside float64's exact-integer
# range (2^53).
_PRIME_LIMIT = 2**21


def _modular_primes(count: int) -> List[int]:
    candidate = _PRIME_CACHE[-1] - 2 if _PRIME_CACHE else _PRIME_LIMIT - 1
    while len(_PRIME_CACHE) < count:
        if _is_probable_prime(candidate):
            _PRIME_CACHE.append(candidate)
        candidate -= 2
    return _PRIME_CACHE[:count]


def _fmod_exact(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a mod p for integer-valued float64 arrays with |a| < 2^52, exactly.

    Float rounding can push the quotient off by one, so the remainder gets
    a single correction pass in each direction.
    """
    q = np.floor(a / p)
    r = a - q * p
    r = np.where(r < 0, r + p, r)
    r = np.where(r >= p, r - p, r)
    return r


_PANEL = 64


def _lu_det_mod(base: np.ndarray, p: int) -> int:
    """det mod p by blocked LU over integer-valued float64.

    Residues stay below p < 2^21, so products stay below 2^42 and a panel
    of 64 accumulated updates stays below 2^52, inside float64's exact
    integer range.  The trailing block is updated by one matrix product
    per panel and reduced immediately after.
    """
    pf = float(p)
    a = _fmod_exact(base, pf)
    n = a.shape[0]
    det = 1
    negate = False
    for k0 in range(0, n, _PANEL):
        k1 = min(k0 + _PANEL, n)
        # panel factorization: full column depth, panel width
        for k in range(k0, k1):
            col = _fmod_exact(a[k:, k], pf)
            a[k:, k] = col
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                return 0
            i = k + int(nz[0])
            if i != k:
                a[[k, i]] = a[[i, k]]
                negate = not negate
            piv = int(a[k, k])
            det = det * piv % p
            if k + 1 == n:
                break
            inv = float(pow(piv, -1, p))
            a[k + 1 :, k] = _fmod_exact(a[k + 1 :, k] * inv, pf)
            if k + 1 < k1:
                a[k, k + 1 : k1] = _fmod_exact(a[k, k + 1 : k1], pf)
                a[k + 1 :, k + 1 : k1] -= np.outer(a[k + 1 :, k], a[k, k + 1 : k1])
        if k1 < n:
            # U12 = L11^-1 A12 by forward substitution, then one trailing GEMM
            a[k0, k1:] = _fmod_exact(a[k0, k1:], pf)
            for k in range(k0 + 1, k1):
                a[k, k1:] -= a[k, k0:k] @ a[k0:k, k1:]
                a[k, k1:] = _fmod_exact(a[k, k1:], pf)
            a[k1:, k1:] -= a[k1:, k0:k1] @ a[k0:k1, k1:]
            a[k1:, k1:] = _fmod_exact(a[k1:, k1:], pf)
    if negate:
        det = (p - det) % p
    return det


def _det_modular(rows: List[List[int]]) -> int:
    """Exact determinant: blocked LU mod many small primes, then CRT.

    The prime product exceeds twice the Hadamard bound, so the symmetric
    CRT lift of the per-prime determinants is the true determinant.
    """
    n = len(rows)
    bound_bits = _hadamard_bits(rows)
    if bound_bits == 0:
        return 0
    primes = _modular_primes(bound_bits // 20 + 2)
    small = all(abs(v) < 2**52 for row in rows for v in row)
    base = np.array(rows, dtype=np.float64) if small else None

    residues = []
    for p in primes:
        if base is not None:
            residues.append(_lu_det_mod(base, p))
        else:
            reduced = np.array(
                [[v % p for v in row] for row in rows], dtype=np.float64
            )
            residues.append(_lu_det_mod(reduced, p))
    return _crt_symmetric(residues, primes)


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


def smith_normal_form(matrix) -> List[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Returns a list of length dim with nonnegative entries forming a
    divisibility chain; trailing zeros count the rank deficiency.  Pivoting
    picks the smallest nonzero magnitude in the working block (ties broken
    by lowest row, then column index), which bounds entry growth and makes
    the reduction deterministic.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    m = len(rows[0]) if rows else 0
    factors = []
    for t in range(min(n, m)):
        while True:
            pivot = _smallest_pivot(rows, t)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                rows[t], rows[pi] = rows[pi], rows[t]
            if pj != t:
                for row in rows:
                    row[t], row[pj] = row[pj], row[t]
            if rows[t][t] < 0:
                rows[t] = [-v for v in rows[t]]
            piv = rows[t][t]
            dirty = False
            for i in range(t + 1, n):
                if rows[i][t] != 0:
                    qd = rows[i][t] // piv
                    if qd:
                        rows[i] = [a - qd * b for a, b in zip(rows[i], rows[t])]
                    if rows[i][t] != 0:
                        dirty = True
            for j in range(t + 1, m):
                if rows[t][j] != 0:
                    qd = rows[t][j] // piv
                    if qd:
                        for row in rows:
                            row[j] -= qd * row[t]
                    if rows[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot now alone in its row and column; enforce divisibility
            culprit = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if rows[i][j] % piv != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            rows[t] = [a + b for a, b in zip(rows[t], rows[culprit])]
        factors.append(abs(rows[t][t]))
    # zero factors sort to the end; nonzero part already forms a chain
    nonzero = [x for x in factors if x != 0]
    zeros = len(factors) - len(nonzero)
    return nonzero + [0] * zeros


def _smallest_pivot(rows, t):
    best = None
    best_abs = None
    for i in range(t, len(rows)):
        row = rows[i]
        for j in range(t, len(row)):
            v = row[j]
            if v != 0:
                a = abs(v)
                if best_abs is None or a < best_abs:
                    best = (i, j)
                    best_abs = a
                    if a == 1:
                        return best
    return best


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


def count_solutions(matrix) -> SolutionCount:
    """Count h in (R/Z)^d with M h = 0.

    The solution group is (R/Z)^nullity x prod Z/d_i for the invariant
    factors d_i; with no zero factor the count is their product, which
    equals |det M|.
    """
    det = det_abs_exact(matrix)
    if det != 0:
        return SolutionCount(value=det)
    factors = smith_normal_form(matrix)
    nullity = sum(1 for x in factors if x == 0)
    return SolutionCount(value=None, nullity=nullity)


# ---------------------------------------------------------------------------
# torus quotients: character products

# Character primes lie in (2^30, 2^31): residues below 2^31 keep every
# product of two below 2^62 in int64, and each prime adds at least 30 bits
# to the CRT modulus.
_CHAR_PRIME_FLOOR = 2**30
_CHAR_PRIME_CEIL = 2**31

# Residues per chunk of primes, (primes x characters) on a torus and
# (primes x blocks x rows x columns) for the split, which keeps the numpy
# temporaries near half a megabyte (or one prime's worth, if larger).
_CHAR_BLOCK = 2**16

# m -> (primes = 1 mod m found so far, in descending order; next candidate)
_CHAR_PRIMES: dict = {}


def _character_primes(m: int, count: int) -> List[int]:
    """The `count` largest primes p = 1 (mod m) in (2^30, 2^31), found lazily."""
    found, candidate = _CHAR_PRIMES.get(m, ([], None))
    step = m if m % 2 == 0 else 2 * m
    if candidate is None:
        candidate = (_CHAR_PRIME_CEIL - 2) // step * step + 1
    while len(found) < count:
        if candidate <= _CHAR_PRIME_FLOOR:
            raise ResourceGuardError(
                f"{count} primes = 1 mod {m} needed, only {len(found)} lie in (2^30, 2^31)"
            )
        if _is_probable_prime(candidate):
            found.append(candidate)
        candidate -= step
    _CHAR_PRIMES[m] = (found, candidate)
    return found[:count]


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


def _root_of_unity(m: int, p: int) -> int:
    """A primitive m-th root of unity modulo a prime p = 1 (mod m)."""
    factors = _prime_factors(m)
    a = 2
    while True:
        w = pow(a, (p - 1) // m, p)
        if all(pow(w, m // ell, p) != 1 for ell in factors):
            return w
        a += 1


@functools.lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Coefficients of Phi_n, constant term first.

    Phi_n = prod over d | n of (t^d - 1)^mu(n/d): the factors with mu = 1
    are multiplied in first, then the factors with mu = -1 divide exactly.
    """
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    mu = {}
    for d in divisors:
        factors = _prime_factors(n // d)
        squarefree = math.prod(factors) == n // d
        mu[d] = (-1) ** len(factors) if squarefree else 0
    poly = [1]
    for d in divisors:
        if mu[d] == 1:
            out = [0] * (len(poly) + d)
            for j, a in enumerate(poly):
                out[j + d] += a
                out[j] -= a
            poly = out
    for d in divisors:
        if mu[d] == -1:
            quot = [0] * (len(poly) - d)
            for j in range(len(quot) - 1, -1, -1):
                quot[j] = poly[j + d] + (quot[j + d] if j + d < len(quot) else 0)
            poly = quot
    return tuple(poly)


def _character_vanishes(exponents: List[int], coeffs: List[int], m: int) -> bool:
    """Whether F(chi) = sum_t coeffs[t] * zeta_m^exponents[t] is exactly 0.

    With g = gcd(m, exponents), zeta_m^g is a primitive (m/g)-th root of
    unity, so F(chi) = h(zeta_(m/g)) for h(t) = sum_t coeffs[t] *
    t^(exponents[t]/g), and F(chi) = 0 exactly when Phi_(m/g) divides h.
    """
    g = math.gcd(m, *exponents)
    order = m // g
    h = [0] * order
    for e, c in zip(exponents, coeffs):
        h[e // g] += c
    phi = _cyclotomic(order)
    deg = len(phi) - 1
    tail = [(j, a) for j, a in enumerate(phi[:-1]) if a]
    for top in range(order - 1, deg - 1, -1):
        c = h[top]
        if c:
            for j, a in tail:
                h[top - deg + j] -= c * a
    return not any(h[:deg])


def _root_powers(m: int, primes: List[int]) -> np.ndarray:
    """omega_p^t mod p for t = 0..m-1, one row per prime p = 1 (mod m)."""
    mods = np.array(primes, dtype=np.int64)[:, None]
    step = np.array([[_root_of_unity(m, p)] for p in primes], dtype=np.int64)
    powers = np.ones((len(primes), m), dtype=np.int64)
    filled = 1
    while filled < m:
        take = min(filled, m - filled)
        powers[:, filled : filled + take] = powers[:, :take] * step % mods
        step = step * step % mods
        filled += take
    return powers


def _crt_prime_count(coeffs: List[int], d: int) -> int:
    """How many primes above 2^30 a CRT lift of a d x d group circulant needs.

    Every row is a permutation of fhat, so Hadamard's inequality gives
    det^2 <= (sum c^2)^d.  n such primes have a product P with
    P^2 > 2^(60n) >= 4 (sum c^2)^d, hence P > 2 |det|.
    """
    return -(-(4 * sum(c * c for c in coeffs) ** d).bit_length() // 60)


def _character_values(
    exponents: np.ndarray, coeffs: List[int], m: int, primes: List[int]
) -> np.ndarray:
    """F(chi_k) mod p, one row per prime and one column per character k.

    ``exponents[k, t]`` is the power of omega, a primitive m-th root of
    unity mod p, that chi_k takes on the t-th folded term, so each value
    costs one lookup per term.
    """
    mods = np.array(primes, dtype=np.int64)[:, None]
    powers = _root_powers(m, primes)
    values = np.zeros((len(primes), exponents.shape[0]), dtype=np.int64)
    for t, c in enumerate(coeffs):
        residue = np.array([[c % p] for p in primes], dtype=np.int64)
        values += powers[:, exponents[:, t]] * residue % mods
        values %= mods
    return values


def _row_products(values: np.ndarray, primes: List[int]) -> List[int]:
    """Product of each row mod its prime, multiplied pairwise as a tree."""
    mods = np.array(primes, dtype=np.int64)[:, None]
    while values.shape[1] > 1:
        half = values.shape[1] // 2
        head = values[:, :half] * values[:, half : 2 * half] % mods
        if values.shape[1] % 2:
            head[:, :1] = head[:, :1] * values[:, -1:] % mods
        values = head
    return [int(v) for v in values[:, 0]]


def _torus_fix_count(f: GroupRingElement, q: TorusQuotient) -> SolutionCount:
    """fix_count on a torus quotient by the character product, exactly.

    With m = lcm(n_i), the character k of Z/n_1 x ... x Z/n_r sends a
    folded term s to omega^(sum_i k_i s_i m / n_i).  The nullity counts the
    characters with F(chi) = 0: every zero mod the first prime is tested
    exactly, and the rest cannot vanish.  Otherwise det M is the product of
    the F(chi), lifted by CRT from enough primes that their product exceeds
    twice Hadamard's bound.
    """
    moduli = q.moduli
    m = math.lcm(*moduli)
    fhat: dict = {}
    for s, c in f.terms.items():
        vec = (s,) if q.rank == 1 else s
        key = tuple(x % n * (m // n) for x, n in zip(vec, moduli))
        fhat[key] = fhat.get(key, 0) + c
    fhat = {key: c for key, c in fhat.items() if c != 0}
    d = q.size
    if not fhat:
        return SolutionCount(value=None, nullity=d)
    coeffs = list(fhat.values())
    chars = np.indices(moduli, dtype=np.int64).reshape(len(moduli), -1).T
    exponents = chars @ np.array(list(fhat), dtype=np.int64).T % m

    first = _character_primes(m, 1)
    values = _character_values(exponents, coeffs, m, first)
    zeros = sum(
        _character_vanishes(exponents[k].tolist(), coeffs, m)
        for k in np.flatnonzero(values[0] == 0)
    )
    if zeros:
        return SolutionCount(value=None, nullity=zeros)

    primes = _character_primes(m, _crt_prime_count(coeffs, d))
    residues = _row_products(values, first)
    block = max(1, _CHAR_BLOCK // d)
    for i in range(1, len(primes), block):
        chunk = primes[i : i + block]
        residues += _row_products(_character_values(exponents, coeffs, m, chunk), chunk)
    return SolutionCount(value=abs(_crt_symmetric(residues, primes)))


# ---------------------------------------------------------------------------
# explicit quotients: the split over a cyclic subgroup


def _max_order_element(table: np.ndarray, identity: int) -> tuple:
    """(g, k): the first element of maximal order k, from one pass over powers."""
    d = table.shape[0]
    elems = np.arange(d, dtype=np.int64)
    order = np.zeros(d, dtype=np.int64)
    power = elems
    k = 1
    while not order.all():
        order[(power == identity) & (order == 0)] = k
        power = table[power, elems]
        k += 1
    g = int(np.argmax(order))
    return g, int(order[g])


def _det_mod_batched(a: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """det a[b] mod mods[b] for a stack of square int64 matrices, in place.

    Fraction-free elimination with a pivot chosen per matrix: the rows
    below pivot c become piv_c * row - a[i][c] * pivot row, which scales
    the determinant by piv_c^(m-1-c).  That scale is the product of the
    prefix products piv_0 ... piv_c for c < m - 1, divided out once at the
    end, so no inverse is taken per column.  Residues stay below 2^31, so
    every product of two stays inside int64.
    """
    n, m, _ = a.shape
    batch = np.arange(n)
    mods3 = mods[:, None, None]
    diag = np.ones(n, dtype=np.int64)
    scale = np.ones(n, dtype=np.int64)
    flips = np.zeros(n, dtype=bool)
    for c in range(m):
        # first nonzero row at or below c; a zero column leaves pivot 0
        r = c + np.argmax(a[:, c:, c] != 0, axis=1)
        swap = np.flatnonzero(r != c)
        if swap.size:
            top = a[swap, c].copy()
            a[swap, c] = a[swap, r[swap]]
            a[swap, r[swap]] = top
            flips[swap] ^= True
        piv = a[batch, c, c]
        diag = diag * piv % mods
        if c + 1 == m:
            break
        scale = scale * diag % mods
        trailing = a[:, c + 1 :, c + 1 :]
        trailing *= piv[:, None, None]
        trailing -= a[:, c + 1 :, c, None] * a[:, None, c, c + 1 :]
        trailing %= mods3
    inv = [pow(int(s), -1, int(p)) if s else 0 for s, p in zip(scale, mods)]
    det = diag * np.array(inv, dtype=np.int64) % mods
    return np.where(flips, (mods - det) % mods, det)


def _split_det(f: GroupRingElement, q: ExplicitQuotient) -> int:
    """|det M| on an explicit quotient, by splitting M over a cyclic subgroup.

    Right translation by an element g of maximal order k commutes with M.
    With every element written as r_i g^e, one r_i per left coset of <g>
    (i < m = d/k), and omega a primitive k-th root of unity mod a prime
    p = 1 (mod k), M is similar mod p to block-diag(B_0, ..., B_{k-1}) with

        B_j[i][pi] = sum of fhat[c] omega^(j e) over c with c^-1 r_i = r_pi g^e,

    so det M = prod_j det B_j (mod p).  Every block of a chunk of primes is
    eliminated at once, and the product is lifted by CRT against
    Hadamard's bound.  Returns 0 exactly when M is singular.
    """
    table = q.table
    d = q.size
    fhat: dict = {}
    for s, c in f.terms.items():
        idx = q.index(s)
        fhat[idx] = fhat.get(idx, 0) + c
    fhat = {idx: c for idx, c in fhat.items() if c != 0}
    if not fhat:
        return 0
    g, k = _max_order_element(table, q.identity_index)
    m = d // k
    gpow = [q.identity_index]
    for _ in range(k - 1):
        gpow.append(int(table[gpow[-1], g]))
    # orbit[x, t] = x g^t; the smallest element of x<g> is its representative
    orbit = table[:, gpow]
    reps, coset = np.unique(orbit.min(axis=1), return_inverse=True)
    shift = -np.argmin(orbit, axis=1) % k
    rows = np.arange(m)
    jumps = np.arange(k)[:, None]
    terms = []
    for c, value in fhat.items():
        y = table[q.inv(c), reps]
        terms.append((value, coset[y], jumps * shift[y] % k))

    coeffs = list(fhat.values())
    primes = _character_primes(k, _crt_prime_count(coeffs, d))
    residues: List[int] = []
    block = max(1, _CHAR_BLOCK // (d * m))
    for start in range(0, len(primes), block):
        chunk = primes[start : start + block]
        mods = np.array(chunk, dtype=np.int64)[:, None, None]
        powers = _root_powers(k, chunk)
        blocks = np.zeros((len(chunk), k, m, m), dtype=np.int64)
        for value, cols, expo in terms:
            residue = np.array([value % p for p in chunk], dtype=np.int64)[:, None, None]
            blocks[:, :, rows, cols] += powers[:, expo] * residue % mods
        blocks %= mods[:, :, :, None]
        dets = _det_mod_batched(
            blocks.reshape(-1, m, m), np.repeat(np.array(chunk, dtype=np.int64), k)
        )
        residues += _row_products(dets.reshape(len(chunk), k), chunk)
    return abs(_crt_symmetric(residues, primes))


def fix_count(
    f: GroupRingElement, q: Quotient, limit: Optional[int] = None
) -> SolutionCount:
    """Number of points of the principal algebraic action fixed by Gn.

    Pulling a fixed point back along the quotient map identifies the fixed
    set with the solutions of the convolution matrix on (R/Z)^d, so the
    count is computed there exactly: by the character product on a torus
    quotient, and by the split over a cyclic subgroup on an explicit one,
    where the Smith normal form of the dense matrix gives the nullity when
    the determinant is 0.
    """
    _check_quotient(f, q, limit)
    if isinstance(q, TorusQuotient):
        return _torus_fix_count(f, q)
    det = _split_det(f, q)
    if det:
        return SolutionCount(value=det)
    factors = smith_normal_form(regular_rep_matrix(f, q, limit=limit))
    return SolutionCount(value=None, nullity=factors.count(0))


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


def fk_determinant_quotient(
    f: GroupRingElement, q: Quotient, limit: Optional[int] = None
) -> float:
    """|det M|^(1/d): the determinant of f's image under the normalized trace.

    Raises NotInvertibleError when det M = 0, i.e. f is not invertible at
    this quotient, where fix_count is infinite.
    """
    _check_quotient(f, q, limit)
    if isinstance(q, TorusQuotient):
        det = _torus_fix_count(f, q).value
    else:
        det = _split_det(f, q)
    if not det:
        raise NotInvertibleError(f"{f.render()} is not invertible at quotient {q.label}")
    return math.exp(log_big_int(det) / q.size)


# ---------------------------------------------------------------------------
# entropy traces


@dataclass(frozen=True)
class TraceRecord:
    label: str
    d: int
    log_fix_count: float
    h_n: float


@dataclass(frozen=True)
class SkippedQuotient:
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
    def final_h(self) -> Optional[float]:
        return self.records[-1].h_n if self.records else None

    @property
    def residual(self) -> Optional[float]:
        if self.reference_value is None or not self.records:
            return None
        return abs(self.records[-1].h_n - self.reference_value)

    def to_csv(self) -> str:
        lines = ["label,d,log_fix_count,h_n"]
        for r in self.records:
            lines.append(f"{csv_field(r.label)},{r.d},{r.log_fix_count!r},{r.h_n!r}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        obj = {
            "f_description": self.f_description,
            "reference_value": self.reference_value,
            "records": [
                {
                    "label": r.label,
                    "d": r.d,
                    "log_fix_count": r.log_fix_count,
                    "h_n": r.h_n,
                }
                for r in self.records
            ],
            "skipped": [
                {"label": s.label, "d": s.d, "nullity": s.nullity}
                for s in self.skipped
            ],
        }
        if self.caveats:
            obj["caveats"] = list(self.caveats)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def entropy_trace(
    f: GroupRingElement,
    quotients: Sequence[Quotient],
    reference: Optional[float] = None,
    limit: Optional[int] = None,
) -> EntropyTrace:
    """Evaluate h_n = log|Fix| / |G/Gn| along a chain of finite quotients.

    The quotient list must be ordered by nondecreasing size.  Quotients
    where the fixed-point group is infinite are skipped with their nullity.
    """
    quotients = list(quotients)
    if not quotients:
        raise ValueError("at least one quotient required")
    sizes = [q.size for q in quotients]
    if any(b < a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("quotients must be ordered by nondecreasing size")

    identity = identity_element(f.rank)
    trace = EntropyTrace(f_description=f.render(), reference_value=reference)
    seen_caveats = set()
    for q in quotients:
        for s in f.support():
            if s != identity and q.index(s) == q.identity_index:
                note = f"support element {s!r} lies in the kernel at {q.label}"
                if note not in seen_caveats:
                    seen_caveats.add(note)
                    trace.caveats.append(note)
        sc = fix_count(f, q, limit=limit)
        if sc.is_finite:
            log_fix = log_big_int(sc.value)
            trace.records.append(
                TraceRecord(
                    label=q.label, d=q.size, log_fix_count=log_fix, h_n=log_fix / q.size
                )
            )
        else:
            trace.skipped.append(
                SkippedQuotient(label=q.label, d=q.size, nullity=sc.nullity)
            )
    return trace
