"""Reference values for the benchmark's output checks.

Nothing here imports sofic.  Every value comes from a route that does not
share code or algorithm with the library it checks:

* rank-1 fixed-point counts from the closed form
  |Fix_n| = |lc|^n * |det(C^n - I)| with C the companion matrix, and
  nullities as deg gcd(p, x^n - 1), both in exact rational arithmetic;
* torus log|Fix| as the character sum  sum_chi log|F(chi)|  (an FFT);
* non-abelian log|Fix| from a floating-point LU (numpy ``slogdet``);
* exact determinants by elimination modulo one Mersenne prime larger than
  twice the Hadamard bound (a single prime, so no CRT);
* subshift counts as traces of a polynomial-weighted transfer matrix on
  the de Bruijn graph of the window, cross-checked by brute force for
  small cycle lengths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# log det_FK(5 - a - a^-1 - b - b^-1) on the free group F2: the integral
# of log(5 - x) against the Kesten-McKay measure of the 4-regular tree.
KESTEN_MCKAY_LOG_DET = 1.5147873288165

# Exponents of Mersenne primes 2^e - 1, smallest first.
_MERSENNE_EXPONENTS = (127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689)

Terms = Dict[Tuple[int, ...], int]


# ---------------------------------------------------------------------------
# exact linear algebra


def _det_fraction(rows: List[List[Fraction]]) -> Fraction:
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            r = m[i][k] / m[k][k]
            if r:
                m[i] = [a - r * b for a, b in zip(m[i], m[k])]
    return det


def det_exact(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by elimination modulo one large prime.

    The prime is a Mersenne prime above twice the Hadamard bound, so the
    symmetric residue is the determinant itself.
    """
    n = len(rows)
    bound_bits = 1
    for row in rows:
        bound_bits += (sum(v * v for v in row).bit_length() + 1) // 2
    exponent = next((e for e in _MERSENNE_EXPONENTS if e > bound_bits + 1), None)
    if exponent is None:
        raise ValueError(f"Hadamard bound of {bound_bits} bits is too large")
    p = (1 << exponent) - 1
    m = [[v % p for v in row] for row in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], -1, p)
        mk = m[k]
        for i in range(k + 1, n):
            r = m[i][k] * inv % p
            if r:
                m[i] = [(a - r * b) % p for a, b in zip(m[i], mk)]
    det %= p
    return det - p if det > p // 2 else det


# ---------------------------------------------------------------------------
# rank 1: closed forms


def _poly_rem(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    """Remainder of a by b; coefficient lists, highest degree first."""
    a = list(a)
    while len(a) >= len(b) and any(a):
        if a[0] == 0:
            a.pop(0)
            continue
        q = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= q * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _gcd_degree(a: List[Fraction], b: List[Fraction]) -> int:
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) - 1


def rank1_fix_counts(terms: Terms, ns: Iterable[int]) -> Dict[int, Tuple[Optional[int], int]]:
    """n -> (|Fix_n|, 0) or (None, nullity) for f = sum c_k x^k over Z/n.

    With p = x^-lo f of degree D and leading coefficient lc,
    |Fix_n| = |Res(p, x^n - 1)| = |lc|^n |det(C^n - I)|, C the companion
    matrix of p / lc.  When that vanishes, the nullity is the number of
    n-th roots of unity that are roots of p, i.e. deg gcd(p, x^n - 1).
    """
    exps = sorted(e[0] for e in terms)
    lo, hi = exps[0], exps[-1]
    degree = hi - lo
    desc = [Fraction(terms.get((hi - i,), 0)) for i in range(degree + 1)]
    lc = desc[0]
    ns = sorted(set(ns))
    out: Dict[int, Tuple[Optional[int], int]] = {}
    if degree == 0:
        for n in ns:
            out[n] = (abs(int(lc)) ** n, 0)
        return out
    # companion matrix: x * basis(x^i) reduced modulo p / lc
    comp = [[Fraction(0)] * degree for _ in range(degree)]
    for i in range(1, degree):
        comp[i][i - 1] = Fraction(1)
    for i in range(degree):
        comp[i][degree - 1] = -desc[degree - i] / lc
    power = [[Fraction(int(i == j)) for j in range(degree)] for i in range(degree)]
    done = 0
    for n in ns:
        while done < n:
            power = [
                [sum(power[i][k] * comp[k][j] for k in range(degree)) for j in range(degree)]
                for i in range(degree)
            ]
            done += 1
        shifted = [
            [power[i][j] - (1 if i == j else 0) for j in range(degree)]
            for i in range(degree)
        ]
        value = abs(lc) ** n * abs(_det_fraction(shifted))
        if value.denominator != 1:
            raise ArithmeticError(f"resultant at n={n} is not an integer")
        if value:
            out[n] = (int(value), 0)
        else:
            cyclo = [Fraction(1)] + [Fraction(0)] * (n - 1) + [Fraction(-1)]
            out[n] = (None, _gcd_degree(desc, cyclo))
    return out


# ---------------------------------------------------------------------------
# tori: character sums


def torus_character_values(terms: Terms, moduli: Sequence[int]) -> np.ndarray:
    """|F(chi)| for every character chi of Z^d / prod n_i Z, by FFT."""
    folded = np.zeros(tuple(moduli), dtype=np.complex128)
    for exp, c in terms.items():
        folded[tuple(e % n for e, n in zip(exp, moduli))] += c
    return np.abs(np.fft.fftn(folded))


def torus_log_fix(terms: Terms, moduli: Sequence[int]) -> Tuple[Optional[float], int]:
    """(sum_chi log|F(chi)|, 0), or (None, #zeros) when some F(chi) = 0.

    A character value counts as zero below 1e-9 * ||f||_1, far above the
    FFT's rounding error and far below the smallest nonzero value that
    small integer polynomials take on these quotients.
    """
    values = torus_character_values(terms, moduli)
    zeros = int(np.count_nonzero(values < 1e-9 * sum(abs(c) for c in terms.values())))
    if zeros:
        return None, zeros
    return float(np.sum(np.log(values))), 0


def torus_matrix(terms: Terms, moduli: Sequence[int]) -> List[List[int]]:
    """Group-circulant M[a][b] = fhat[a - b] with row-major coset indices."""
    cosets = list(itertools.product(*(range(n) for n in moduli)))
    index = {c: i for i, c in enumerate(cosets)}
    fhat: Dict[int, int] = {}
    for exp, c in terms.items():
        k = index[tuple(e % n for e, n in zip(exp, moduli))]
        fhat[k] = fhat.get(k, 0) + c
    rows = [[0] * len(cosets) for _ in cosets]
    for a, ca in enumerate(cosets):
        for b, cb in enumerate(cosets):
            diff = index[tuple((x - y) % n for x, y, n in zip(ca, cb, moduli))]
            rows[a][b] = fhat.get(diff, 0)
    return rows


# ---------------------------------------------------------------------------
# SL(2, Z/p)


def sl2_group(p: int):
    """(table, a, b): multiplication table of SL(2, Z/p) and the indices of
    Sanov's generators a = [[1,2],[0,1]] and b = [[1,0],[2,1]]."""
    elements = [
        m for m in itertools.product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p == 1
    ]
    index = {m: i for i, m in enumerate(elements)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)

    table = [[index[mul(x, y)] for y in elements] for x in elements]
    return table, index[(1, 2 % p, 0, 1)], index[(1, 0, 2 % p, 1)]


def group_matrix(table: Sequence[Sequence[int]], fhat: Dict[int, int]) -> np.ndarray:
    """Integer matrix M[c*h][h] = fhat[c], i.e. M[a][b] = fhat[a b^-1]."""
    t = np.asarray(table, dtype=np.int64)
    d = t.shape[0]
    m = np.zeros((d, d), dtype=np.int64)
    cols = np.arange(d)
    for c, v in fhat.items():
        m[t[c], cols] += v
    return m


def log_abs_det_float(m: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(m.astype(np.float64))
    if sign == 0:
        raise ValueError("matrix is numerically singular")
    return float(logdet)


# ---------------------------------------------------------------------------
# subshifts


def subshift_counts(
    alphabet: Sequence, window: Sequence[int], allowed: Iterable[tuple],
    lengths: Iterable[int], budgets: Sequence[int], brute_force_max: int = 10,
) -> Dict[Tuple[int, int], int]:
    """(n, budget) -> number of labelings of Z/n with at most ``budget`` bad sites.

    The window must be {0, ..., w-1}.  A labeling of the cycle is a closed
    walk of length n on the de Bruijn graph of (w-1)-blocks, and a step is
    bad when its w-block is not allowed; so the counts with exactly k bad
    sites are the coefficients of z^k in trace(W^n) with W = T + z (J - T).
    For n <= ``brute_force_max`` every labeling is also enumerated with the
    pulled-back pattern definition, site k reading l(k - s) at offset s; the
    two routes must agree.
    """
    window = tuple(window)
    w = len(window)
    if w < 2 or sorted(window) != list(range(w)):
        raise ValueError("window must be {0, ..., w-1} with w >= 2")
    allowed = {tuple(p) for p in allowed}
    # pattern in window order -> pattern in offset order
    order = sorted(range(w), key=lambda i: window[i])
    ok = {tuple(p[i] for i in order) for p in allowed}
    top = max(budgets)
    lengths = sorted(set(lengths))

    states = list(itertools.product(alphabet, repeat=w - 1))
    edges: Dict[tuple, List[int]] = {}
    for s in states:
        for a in alphabet:
            edges.setdefault((s, s[1:] + (a,)), []).append(0 if s + (a,) in ok else 1)
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    # weight matrix: polynomial in z (coefficient list, truncated at z^top)
    weight = [[[0] * (top + 1) for _ in range(size)] for _ in range(size)]
    for (s, t), bads in edges.items():
        for bad in bads:
            if bad <= top:
                weight[index[s]][index[t]][bad] += 1

    def poly_mul_add(acc, x, y):
        for i, xi in enumerate(x):
            if xi:
                for j in range(top + 1 - i):
                    if y[j]:
                        acc[i + j] += xi * y[j]

    counts: Dict[Tuple[int, int], int] = {}
    power = [[[int(i == j)] + [0] * top for j in range(size)] for i in range(size)]
    done = 0
    for n in lengths:
        while done < n:
            nxt = [[[0] * (top + 1) for _ in range(size)] for _ in range(size)]
            for i in range(size):
                for k in range(size):
                    if any(power[i][k]):
                        for j in range(size):
                            poly_mul_add(nxt[i][j], power[i][k], weight[k][j])
            power = nxt
            done += 1
        trace = [sum(power[i][i][k] for i in range(size)) for k in range(top + 1)]
        for b in budgets:
            counts[(n, b)] = sum(trace[: b + 1])

    for n in lengths:
        if n > brute_force_max:
            continue
        tally = [0] * (n + 1)
        for labels in itertools.product(alphabet, repeat=n):
            bad = 0
            for k in range(n):
                pattern = tuple(labels[(k - s) % n] for s in window)
                if pattern not in allowed:
                    bad += 1
            tally[bad] += 1
        for b in budgets:
            if counts[(n, b)] != sum(tally[: b + 1]):
                raise AssertionError(f"reference routes disagree at n={n}, budget={b}")
    return counts
