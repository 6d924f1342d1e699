"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route disjoint from the
library code under test: rational Gaussian elimination for determinants
and ranks, fraction-free Bareiss elimination, explicit cofactor expansion,
exhaustive enumeration for solution counts and cyclic pattern counts,
the Smith normal form of the dense group-circulant matrix for nullities,
and Miller-Rabin tests along an arithmetic progression for the primes
p = 1 (mod m) that the library sieves.
The one exception is ``det_abs_exact``: it drives the library's modular
elimination kernel on the dense matrix, so it checks the split and the
character product by a different reduction to the same kernel, and the
kernel itself is checked against ``det_fraction`` and ``det_bareiss``.
``table_count`` is no oracle: it reads the library's own cyclic count off
an entropy table, for the tests to hold against the oracles.  Nor is
``split_count``: it runs the library's split, the route that rank-1 tori
leave when the companion walk prices lower, as an oracle for that walk.
The walk's other oracle, ``companion_count``, is the matrix form it
replaced: a power of the integer companion matrix, its Bareiss determinant
and its rank by rational elimination.  ``rank1_route`` prices a rank-1
trace's two routes at every quotient, the eager form of the library's route
choice, which prices the split only where it can change the outcome.
``split_price`` prices a split by the formulas that the library's priced
plan folds into one object, each bound taken as its exact power.
"""

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List

import numpy as np

from sofic import algebraic, subshift
from sofic.algebraic import (
    _CHAR_BLOCK,
    SolutionCount,
    _character_primes,
    _crt_prime_count,
    _crt_symmetric,
    _det_mod_batched,
    _Split,
    _power_bits,
    _split_det,
    fix_count,
    log_big_int,
)
from sofic.groups import GroupRingElement, Quotient, ResourceGuardError, torus_quotient
from sofic.subshift import subshift_entropy_table

# The most entries the dense oracle's d x d matrix may have.
MATRIX_ENTRIES_CAP = 10**6


def det_fraction(rows):
    """Determinant by exact rational Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            r = m[i][k] / m[k][k]
            m[i] = [a - r * b for a, b in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


def det_bareiss(rows):
    """Determinant by fraction-free Bareiss elimination; divisions are exact."""
    rows = [[int(v) for v in row] for row in rows]
    n = len(rows)
    if n == 0:
        return 1
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


def rank_fraction(rows):
    """Rank over Q by exact rational elimination."""
    if not rows:
        return 0
    m = [[Fraction(v) for v in row] for row in rows]
    n, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, n) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, n):
            r = m[i][c] / m[rank][c]
            m[i] = [a - r * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# primes by trial: the oracle for the library's sieved prime pool


def is_probable_prime(n):
    """Deterministic Miller-Rabin with bases 2, 7, 61, exact below
    4,759,123,141 (Jaeschke 1993), so for every n below 2^31."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 7, 61):
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


def character_primes_walk(m, count):
    """The `count` largest primes p = 1 (mod m) in (2^30, 2^31), by walking
    down the odd candidates 1 + j lcm(2, m) and testing each one."""
    step = math.lcm(2, m)
    candidate = (2**31 - 2) // step * step + 1
    found = []
    while len(found) < count and candidate > 2**30:
        if is_probable_prime(candidate):
            found.append(candidate)
        candidate -= step
    return found


# ---------------------------------------------------------------------------
# the dense route: the group-circulant matrix, its determinant and its
# Smith normal form


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

    def tolist(self) -> list:
        return [[int(v) for v in row] for row in self.entries]


def regular_rep_matrix(f: GroupRingElement, q: Quotient) -> RegularRepMatrix:
    """Build the group-circulant matrix of f over the quotient q.

    Entry (a, b) equals fhat[a * b^-1] where fhat folds the coefficients of
    f along the fibers of the quotient map, so every row sums to the total
    coefficient sum of f.  Refused when d^2 exceeds MATRIX_ENTRIES_CAP.
    """
    if f.rank != q.rank:
        raise ValueError(f"element/quotient mode mismatch (ranks {f.rank} and {q.rank})")
    d = q.size
    if d * d > MATRIX_ENTRIES_CAP:
        raise ResourceGuardError(f"{d}x{d} matrix exceeds {MATRIX_ENTRIES_CAP} entries")
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

    Accepts a RegularRepMatrix or any square array-like of integers.  By
    Hadamard's inequality det^2 is at most the product of the squared row
    norms, so M is eliminated modulo enough of the largest primes below
    2^31 for a CRT lift against that bound, a chunk of primes per batched
    pass.  A zero row makes the bound 0, and no prime is needed.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    bound = math.prod(sum(v * v for v in row) for row in rows)
    primes = _character_primes(1, _crt_prime_count(bound))
    residues: List[int] = []
    block = max(1, _CHAR_BLOCK // max(1, n * n))
    for start in range(0, len(primes), block):
        chunk = primes[start : start + block]
        reduced = [[[v % p for v in row] for row in rows] for p in chunk]
        a = np.array(reduced, dtype=np.int64).reshape(len(chunk), n, n)
        residues += _det_mod_batched(a, np.array(chunk, dtype=np.int64))[0].tolist()
    return abs(_crt_symmetric(residues, primes))


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


def fk_determinant_quotient(f: GroupRingElement, q: Quotient) -> float:
    """|det M|^(1/d): the determinant of f's image under the normalized trace.

    Raises NotInvertibleError when det M = 0, i.e. f is not invertible at
    this quotient, where fix_count is infinite.
    """
    sc = fix_count(f, q)
    if not sc.is_finite:
        raise NotInvertibleError(f"{f.render()} is not invertible at quotient {q.label}")
    return math.exp(log_big_int(sc.value) / q.size)


# ---------------------------------------------------------------------------


def det3_cofactor(m):
    """3x3 determinant by cofactor expansion along the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def count_torus_solutions_brute(rows):
    """Solutions of M h = 0 in (R/Z)^n by enumerating the rational grid.

    Any solution has coordinates in (1/D)Z/Z for D = |det M|, so counting
    g in (Z/D)^n with M g == 0 (mod D) enumerates them all.  Returns None
    when det = 0 (infinitely many solutions).
    """
    det = abs(det_fraction(rows))
    if det == 0:
        return None
    n = len(rows)
    if det == 1:
        return 1
    grids = np.meshgrid(*([np.arange(det)] * n), indexing="ij")
    vectors = np.stack([g.ravel() for g in grids], axis=1)  # (det^n, n)
    m = np.array(rows, dtype=np.int64)
    image = vectors @ m.T % det
    return int(np.count_nonzero((image == 0).all(axis=1)))


def allowed_pairs(sft):
    """Allowed transitions (symbol at 0, symbol at 1) of a window {0, 1}."""
    if not sft.is_nearest_neighbor:
        raise ValueError("window shape unsupported; expected offsets {0, 1}")
    i0 = sft.window.index(0)
    i1 = sft.window.index(1)
    return {(pat[i0], pat[i1]) for pat in sft.allowed}


def table_count(sft, n, budget=0):
    """The library's count of the labelings of Z/n with at most `budget` bad
    sites, read off its one-length entropy table (the row of the largest
    budget, as the table adds budget 0)."""
    return subshift_entropy_table(sft, [n], [budget]).rows[-1].count


def count_cycles_brute(sft, n, budget):
    """Cyclic labelings with at most `budget` bad transitions, exhaustively.

    Transitions are (l(k), l(k+1 mod n)); bad means not in the allowed
    pair set of the nearest-neighbor SFT.
    """
    pairs = allowed_pairs(sft)
    symbols = sft.alphabet
    m = len(symbols)
    ok = np.zeros((m, m), dtype=bool)
    index = {s: i for i, s in enumerate(symbols)}
    for a, b in pairs:
        ok[index[a], index[b]] = True
    total = m**n
    ids = np.arange(total, dtype=np.int64)
    digits = (ids[:, None] // (m ** np.arange(n, dtype=np.int64))) % m
    bad = np.zeros(total, dtype=np.int64)
    for k in range(n):
        bad += ~ok[digits[:, k], digits[:, (k + 1) % n]]
    return int(np.count_nonzero(bad <= budget))


def transition_matrix_power_trace(sft, n):
    """trace(T^n) with exact integer arithmetic (row-by-row matrix power)."""
    pairs = allowed_pairs(sft)
    symbols = sft.alphabet
    m = len(symbols)
    t = [[1 if (a, b) in pairs else 0 for b in symbols] for a in symbols]
    power = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(n):
        power = [
            [sum(power[i][k] * t[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)
        ]
    return sum(power[i][i] for i in range(m))


def transfer_dp_count(sft, n, budget):
    """Cyclic labelings with at most `budget` bad transitions, by a DP.

    For each start symbol, dynamic programming over (current symbol, bad
    transitions so far) along the path, closed by the transition back to
    the start symbol.  O(m^3 n budget) per count.
    """
    pairs = allowed_pairs(sft)
    symbols = sft.alphabet
    m = len(symbols)
    ok = [[(a, b) in pairs for b in symbols] for a in symbols]
    cap = min(budget, n)

    if n == 1:
        exact = sum(1 for a in range(m) if ok[a][a])
        return exact if budget == 0 else m

    total = 0
    for start in range(m):
        dp = [[0] * (cap + 1) for _ in range(m)]
        dp[start][0] = 1
        for _pos in range(1, n):
            ndp = [[0] * (cap + 1) for _ in range(m)]
            for prev in range(m):
                for v in range(cap + 1):
                    c = dp[prev][v]
                    if c == 0:
                        continue
                    for nxt in range(m):
                        nv = v if ok[prev][nxt] else v + 1
                        if nv <= cap:
                            ndp[nxt][nv] += c
            dp = ndp
        for last in range(m):
            for v in range(cap + 1):
                nv = v if ok[last][start] else v + 1
                if nv <= cap:
                    total += dp[last][v]
    return total


def bad_site_tally_brute(sft, sigma, constraints):
    """Labelings tallied by number of bad sites, by itertools.product.

    A window translate t is tested when t + w lies in the constraint set
    for every window offset w; at site k it reads the pattern whose entry
    at offset w is the label of the site that sigma(t + w) sends to k.  A
    site is bad when any tested translate reads a disallowed pattern.
    """
    import itertools
    from operator import itemgetter

    cset = set(constraints)
    window = sft.window
    translates = sorted(
        t for t in {c - w for c in cset for w in window}
        if all(t + w in cset for w in window)
    )
    d = sigma.d
    preimage = {}
    for t in translates:
        for w in window:
            perm = [int(x) for x in sigma.perm(t + w)]
            preimage[t + w] = [perm.index(k) for k in range(d)]
    readers = [
        [itemgetter(*[preimage[t + w][k] for w in window]) for t in translates]
        for k in range(d)
    ]
    index = sft.symbol_index()
    allowed = {tuple(index[s] for s in pat) for pat in sft.allowed}
    if len(window) == 1:
        allowed = {p[0] for p in allowed}
    tally = [0] * (d + 1)
    for labels in itertools.product(range(len(sft.alphabet)), repeat=d):
        bad = sum(
            1 for site in readers if any(read(labels) not in allowed for read in site)
        )
        tally[bad] += 1
    return tally


def hom_count_full_shift(k, sigma):
    """Count for the full shift on k symbols: exactly k^d, for any sigma.

    Every labeling of the d sites extends to an equivariant family of
    points of the full shift, so the count is independent of the
    approximation quality, the constraint set, and the budget.
    """
    if k < 1:
        raise ValueError("alphabet size must be >= 1")
    return k**sigma.d


def lucas_numbers(up_to):
    """Lucas sequence L_1 = 1, L_2 = 3, L_n = L_{n-1} + L_{n-2}."""
    values = {1: 1, 2: 3}
    for n in range(3, up_to + 1):
        values[n] = values[n - 1] + values[n - 2]
    return values


def cyclic_table(n):
    """Multiplication table of Z/n as an explicit finite group."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def s3_table():
    """Multiplication table of the symmetric group on 3 letters.

    Elements are the 6 permutations of (0, 1, 2) in lexicographic order of
    their one-line notation; entry (i, j) is the index of p_i after p_j
    (apply j first, then i).
    """
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    return table, perms


def sl2_table(p):
    """SL(2, Z/p) for an odd prime p, generated by Sanov's matrices.

    Returns (table, a, b): a and b index a = [[1,2],[0,1]] and
    b = [[1,0],[2,1]].  Elements are numbered in the order a breadth-first
    search from the identity reaches them by right multiplication with
    a^+-1 and b^+-1, and every table entry is a 2x2 matrix product mod p,
    so the table is associative by construction.
    """

    def mul(x, y):
        return (
            (x[0] * y[0] + x[1] * y[2]) % p,
            (x[0] * y[1] + x[1] * y[3]) % p,
            (x[2] * y[0] + x[3] * y[2]) % p,
            (x[2] * y[1] + x[3] * y[3]) % p,
        )

    a, b = (1, 2, 0, 1), (1, 0, 2, 1)
    steps = [a, (1, p - 2, 0, 1), b, (1, 0, p - 2, 1)]
    elements = [(1, 0, 0, 1)]
    index = {elements[0]: 0}
    for x in elements:
        for s in steps:
            y = mul(x, s)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    assert len(elements) == p * (p * p - 1)
    # every product at once, each matrix coded as a base-p number
    mats = np.array(elements, dtype=np.int64)
    left, right = mats[:, None, :], mats[None, :, :]
    code = np.zeros((len(elements), len(elements)), dtype=np.int64)
    for i, j in ((0, 0), (0, 1), (2, 0), (2, 1)):
        code = code * p + (left[..., i] * right[..., j] + left[..., i + 1] * right[..., j + 2]) % p
    lookup = np.zeros(p**4, dtype=np.int64)
    lookup[[((w * p + x) * p + y) * p + z for w, x, y, z in elements]] = np.arange(len(elements))
    return lookup[code].tolist(), index[a], index[b]


def heisenberg_table(n):
    """H3(Z/n), the upper unitriangular 3 x 3 matrices mod n.

    Returns (table, x, y): the element (a, b, c) is numbered (a n + b) n + c,
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b'), and x, y index
    (1, 0, 0) and (0, 1, 0), which generate it.
    """
    # columns hold the left factor, rows (the transposes) the right one
    a, b, c = np.indices((n, n, n), dtype=np.int64).reshape(3, -1, 1)
    table = ((a + a.T) % n * n + (b + b.T) % n) * n + (c + c.T + a * b.T) % n
    return table.tolist(), n * n % n**3, n % n**3


def every_character_count(f: GroupRingElement, q: Quotient) -> SolutionCount:
    """``fix_count`` by the split with every character of A its own orbit
    and the plan's symmetry flag cleared: one block per character and
    det M lifted whole, the oracle for the normaliser's orbits and for the
    square-root lift of a symmetric f."""
    plan = q.split_plan(f)
    size = math.prod(plan.moduli)
    ones = np.ones(size, dtype=np.int64)
    split = _Split(replace(plan, orbit_reps=np.arange(size), orbit_sizes=ones, symmetric=False))
    assert split.det_need == _crt_prime_count(sum(c * c for c in plan.coeffs) ** q.size)
    [(det, rank)] = _split_det([split])
    return SolutionCount(det) if det else SolutionCount(None, q.size - rank)


def split_count(f: GroupRingElement, q: Quotient) -> SolutionCount:
    """``fix_count`` by the split alone, from its priced plan, whatever the
    quotient.  The split is called through the module, so a spy set on it
    there sees the call."""
    split = algebraic._Split(q.split_plan(f))
    if max(split.work, split.supply) > algebraic.COST_CAP:
        raise algebraic._refusal(q, f"work {split.work} so far, prime supply {split.supply}")
    [(det, rank)] = algebraic._split_det([split])
    return SolutionCount(det) if det else SolutionCount(None, q.size - rank)


def companion_count(f: GroupRingElement, n: int) -> SolutionCount:
    """``fix_count`` on Z/n of a rank-1 f = x^lo p(x), p of degree D and
    leading coefficient lc, from A = lc C, C the companion matrix of p / lc:
    |det M_n| = |det(A^n - lc^n I)| / |lc|^(n (D - 1)), and when that is 0
    the nullity D - rank(A^n - lc^n I), the rank by ``rank_fraction``."""
    lo, hi = min(f.terms), max(f.terms)
    D, lc = hi - lo, f.terms[hi]
    if not D:
        return SolutionCount(abs(lc) ** n)
    a = [[lc * (i == j + 1) for j in range(D - 1)] + [-f.terms.get(lo + i, 0)] for i in range(D)]
    power = [[int(i == j) for j in range(D)] for i in range(D)]
    for bit in bin(n)[2:]:
        power = _matmul(power, power)
        if bit == "1":
            power = _matmul(power, a)
    for i in range(D):
        power[i][i] -= lc**n
    det = det_bareiss(power)
    if det:
        return SolutionCount(abs(det) // abs(lc) ** (n * (D - 1)))
    return SolutionCount(None, D - rank_fraction(power))


def rank1_route(f: GroupRingElement, sizes) -> str:
    """The route of a rank-1 trace of f over Z/n, n in the nondecreasing
    sizes, priced as every quotient is drawn: "walk", "split", or the text
    of the refusal.  Both routes' totals run side by side, the split's
    from each quotient's priced plan, ``algebraic._Split``; the trace is
    refused at the first quotient where neither is within COST_CAP, and
    otherwise takes the route of the lower total, the walk on a tie or once
    the split is out.
    The eager form of the pricing in ``algebraic._counts``, which prices
    the split only where its total decides the route."""
    from sofic.companion import Companion

    walk = Companion(ascending(f))
    spent = walked = supply = last = 0
    split_out = walk_out = None
    for n in sizes:
        q = torus_quotient([n])
        if split_out is None:
            split = algebraic._Split(q.split_plan(f))
            spent += split.work
            supply = max(supply, split.supply)
            split_out = q.label if max(spent, supply) > algebraic.COST_CAP else None
        if walk_out is None:
            walked += math.ceil(walk.cost(n - last, n))
            walk_out = q.label if walked > algebraic.COST_CAP else None
        if split_out and walk_out:
            return str(algebraic._refusal(q, f"companion work {walked} at {walk_out}, "
                                             f"split work {spent} and prime supply {supply} "
                                             f"at {split_out}"))
        last = n
    return "walk" if split_out or walked <= spent else "split"


def split_price(f: GroupRingElement, q: Quotient) -> tuple:
    """(det_need, s_need, work, supply) of the split of f over q, by the
    pricing formulas that ``algebraic._Split`` folds into one object, each
    bound taken as its exact power.

    det_need is the CRT count of Hadamard's bound (sum c^2)^d on det M^2,
    or on a symmetric plan the largest of the counts of |H| <= (sum c^2)^(d/4),
    of |S| (at most det M's), and of the widest rank budget
    l1^(m ceil(phi(k) / 2)), k = exp A; s_need is that of
    |S| <= l1^(m #real), #real the characters chi_j with 2 j = 0 mod the
    moduli, 0 on any other plan.  work = det_need x orbits x (m^3 +
    terms m^2 + 16) + _SPLIT_PLAN and supply = 64 det_need phi(k)."""
    plan = q.split_plan(f)
    terms, m = plan.cols.shape
    squares = sum(c * c for c in plan.coeffs)
    l1 = sum(abs(c) for c in plan.coeffs)
    k = math.lcm(*plan.moduli)
    phi = sum(math.gcd(i, k) == 1 for i in range(1, k + 1))
    det_need, s_need = _crt_prime_count(squares**q.size), 0
    if plan.symmetric:
        every = list(itertools.product(*[range(n) for n in plan.moduli]))
        real = sum(int(size) for j, size in zip(plan.orbit_reps, plan.orbit_sizes)
                   if all(2 * c % n == 0 for c, n in zip(every[j], plan.moduli)))
        s_need = _crt_prime_count(l1 ** (m * real), 1)
        det_need = max(_crt_prime_count(squares**q.size, 4), min(det_need, s_need),
                       _crt_prime_count(l1 ** (m * ((phi + 1) // 2)), 1))
    work = det_need * plan.orbits * (m**3 + terms * m * m + 16) + algebraic._SPLIT_PLAN
    return det_need, s_need, work, 64 * det_need * phi


def _matmul(a, b):
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def sylvester(a, b):
    """The Sylvester matrix of two integer polynomials (ascending
    coefficients), deg a + deg b square: deg b shifted rows of a over deg a
    of b.  Its determinant is Res(a, b), and its nullity deg gcd(a, b)."""
    m, k = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (k - 1 - i) for i in range(k)]
    return rows + [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]


def ascending(f):
    """The ascending coefficients of p for a rank-1 f = x^lo p(x), lo the
    least exponent of f, as `companion.Companion` takes them."""
    lo, hi = min(f.terms), max(f.terms)
    return [f.terms.get(e, 0) for e in range(lo, hi + 1)]


def dense_transfer_traces(sft, lengths, degree):
    """The table's transfer walk by dense matrix powers: P_n = P_prev
    B^(n - prev) for every gap between the sorted distinct lengths, B^g by
    repeated squaring, every entry a packed polynomial masked at z^degree,
    where `subshift._transfer_traces` steps to D by shift-and-add and
    recurs past it."""

    def mul(a, b):
        cols = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) & mask for col in cols] for row in a]

    def power(a, e):
        result = None
        while True:
            if e & 1:
                result = a if result is None else mul(result, a)
            e >>= 1
            if not e:
                return result
            a = mul(a, a)

    lengths = sorted(set(lengths))
    width = _power_bits(len(sft.alphabet), lengths[-1])
    mask = (1 << (width * (degree + 1))) - 1
    step = subshift._block_step(sft, (1 << width) & mask)
    traces, walked, done = {}, None, 0
    for n in lengths:
        gap = power(step, n - done)
        walked = gap if walked is None else mul(walked, gap)
        done = n
        trace = sum(row[i] for i, row in enumerate(walked))
        traces[n] = [(trace >> (k * width)) & ((1 << width) - 1) for k in range(degree + 1)]
    return traces


def relabel_table(table, perm):
    """The same group with element i renamed perm[i]."""
    d = len(table)
    out = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def group_table_oracle(table, images):
    """(identity, inverses) when ``table`` is a group that the elements in
    ``images`` (a mapping) generate, else None.  A Latin square, an identity
    found by search, associativity over all d^3 triples, and generation by
    a breadth-first search over the images and their inverses."""
    d = len(table)
    assert d <= 12, "all d^3 triples are checked"
    full = set(range(d))
    if any(set(row) != full for row in table):
        return None
    if any({row[y] for row in table} != full for y in range(d)):
        return None
    ids = [u for u in range(d) if all(table[u][x] == x == table[x][u] for x in range(d))]
    if not ids:
        return None
    e = ids[0]
    for x in range(d):
        for y in range(d):
            for z in range(d):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return None
    inverses = [row.index(e) for row in table]
    steps = set(images.values()) | {inverses[g] for g in images.values()}
    seen = [e]
    for x in seen:
        for g in steps:
            if table[x][g] not in seen:
                seen.append(table[x][g])
    return (e, inverses) if len(seen) == d else None


def kesten_mckay_log_det(lam, points=4000):
    """Integral of log(lam - x) against the Kesten-McKay measure of the
    4-regular tree, density 4 sqrt(12 - x^2) / (2 pi (16 - x^2)) on
    |x| <= 2 sqrt(3), for lam > 4.

    With x = 2 sqrt(3) cos(t) the measure becomes
    24 sin(t)^2 / (pi (16 - 12 cos(t)^2)) dt on [0, pi], a smooth periodic
    integrand, so the midpoint rule converges geometrically.
    """
    t = (np.arange(points) + 0.5) * np.pi / points
    x = 2 * np.sqrt(3) * np.cos(t)
    weight = 24 * np.sin(t) ** 2 / (np.pi * (16 - x * x))
    return float(np.sum(weight * np.log(lam - x)) * np.pi / points)
