"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route disjoint from the
library code under test: rational Gaussian elimination for determinants
and ranks, explicit cofactor expansion, exhaustive enumeration for
solution counts and cyclic pattern counts.
"""

from fractions import Fraction

import numpy as np


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


def count_cycles_brute(sft, n, budget):
    """Cyclic labelings with at most `budget` bad transitions, exhaustively.

    Transitions are (l(k), l(k+1 mod n)); bad means not in the allowed
    pair set of the nearest-neighbor SFT.
    """
    pairs = sft.allowed_pairs()
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
    pairs = sft.allowed_pairs()
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
    table = [[index[mul(x, y)] for y in elements] for x in elements]
    return table, index[a], index[b]


def relabel_table(table, perm):
    """The same group with element i renamed perm[i]."""
    d = len(table)
    out = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


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
