"""Torus-side reference values for the entropy of principal algebraic actions.

For f supported on Z^d, write F(theta) = sum_s f_s exp(2*pi*i s.theta) for
theta on the d-torus [0,1)^d.  The logarithmic Mahler measure

    m(f) = integral of log|F| over the torus

is the limit the per-quotient entropy values converge to, so it serves as
an independent cross-check of the exact counting pipeline.  Rank 1 admits
a closed evaluation through Jensen's formula (roots of the associated
ordinary polynomial); every rank admits uniform-grid quadrature, which for
nonvanishing F converges super-algebraically because the integrand is
smooth and periodic.

Nonvanishing of F on the torus is exactly invertibility of f in the group
C*-algebra when the group is abelian; certify_invertible_torus checks it
with a grid minimum plus a Lipschitz bound.  The certificate and the
quadrature read one grid scan (`_torus_scan`), each with its own near-zero
threshold, and a caller that wants both makes that scan once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import GroupRingElement, ResourceGuardError, element_norm1

__all__ = [
    "NearZeroError",
    "MahlerEstimate",
    "InvertibilityCertificate",
    "mahler_jensen",
    "mahler_quadrature",
    "certify_invertible_torus",
]

ROOT_DEGREE_CAP = 64

# The most points of a torus grid (2048 per axis at rank 2): the scan holds a
# few arrays of this many complex128 values, 64 MB each.
GRID_CAP = 2**22

# Forward error of one FFT butterfly level, in units of u * ||f||_1.  A
# radix-2 level has relative error eta = mu + gamma_4 * (sqrt 2 + mu), about
# 5.7u with twiddle error mu near u (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 24); 8 also covers the mixed-radix and
# Bluestein passes used for other grid lengths.  Measured errors stay below
# 0.7 u * ||f||_1 per level for ||f||_1 up to 10^17.
FFT_LEVEL_ERROR = 8.0

_UNIT_ROUNDOFF = 2.0**-53

NEAR_ZERO_QUADRATURE = 1e-14
NEAR_ZERO_CERTIFICATE = 1e-10


class NearZeroError(ArithmeticError):
    """|F| fell below the near-zero threshold on the evaluation grid."""

    def __init__(self, message: str, witness, value_abs: float):
        super().__init__(message)
        self.witness = witness
        self.value_abs = value_abs


@dataclass(frozen=True)
class MahlerEstimate:
    """A log-scale Mahler measure value with an error estimate.

    ``method`` is "jensen" (rank 1, root-based) or "quadrature" (uniform
    torus grid with ``grid`` points per axis).  ``evaluations`` counts
    function or root evaluations behind the value.  ``error_bound`` is None
    where none is claimed (see `mahler_quadrature`).
    """

    value: float
    error_bound: Optional[float]
    method: str
    evaluations: int
    grid: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError("estimate value must be finite")
        if self.error_bound is not None:
            object.__setattr__(self, "error_bound", float(self.error_bound))
            if not math.isfinite(self.error_bound) or self.error_bound < 0:
                raise ValueError("error bound must be finite and nonnegative")


@dataclass(frozen=True)
class InvertibilityCertificate:
    """Outcome of the torus non-vanishing check for abelian groups.

    ``verdict`` is "certified_invertible" (with a positive lower bound on
    |F| over the whole torus), "not_invertible_suspected" (a grid point
    with |F| below threshold; ``witness`` holds it), or "unknown" (grid too
    coarse for the Lipschitz argument; refine).
    """

    verdict: str
    grid: int
    lipschitz_bound: float
    min_abs: float
    min_abs_lower_bound: Optional[float] = None
    witness: Optional[tuple] = None
    witness_abs: Optional[float] = None

    @property
    def is_certified(self) -> bool:
        return self.verdict == "certified_invertible"


def _grid_values(f: GroupRingElement, grid: int) -> np.ndarray:
    """F on the uniform grid (j_1/g, ..., j_d/g) via a d-dimensional FFT.

    Folding the coefficients modulo the grid makes the evaluation an
    inverse DFT of the folded array, exact up to float rounding.
    """
    d = f.rank
    folded = np.zeros((grid,) * d, dtype=np.complex128)
    for elem, coeff in f.terms.items():
        vec = (elem,) if d == 1 else elem
        idx = tuple(int(x) % grid for x in vec)
        folded[idx] += float(coeff)
    return np.fft.ifftn(folded) * (grid**d)


def _grid_error_bound(f: GroupRingElement, grid: int) -> float:
    """Bound on |computed F - F| at every point of _grid_values' grid.

    Rounding the coefficients to float and folding them onto the grid costs
    at most terms * u * ||f||_1, each of the log2(grid^rank)
    butterfly levels at most FFT_LEVEL_ERROR * u * ||f||_1 (partial sums
    along one value's butterfly tree add up to at most ||f||_1 per level),
    and the final scaling and modulus one more u * ||f||_1.
    """
    levels = f.rank * math.log2(grid)
    return _UNIT_ROUNDOFF * f.one_norm * (FFT_LEVEL_ERROR * levels + len(f.terms) + 1)


def mahler_jensen(f: GroupRingElement) -> MahlerEstimate:
    """Rank-1 Mahler measure via Jensen's formula.

    Writing f as x^k * p(x) with an ordinary polynomial p, the measure is
    log|lead(p)| plus the log-moduli of the roots outside the unit circle.
    Roots come from companion-matrix eigenvalues with one Newton polish,
    and the error bound comes from their inclusion discs (`_jensen_error`),
    so it holds for clusters of roots and repeated roots too.
    """
    if f.is_zero:
        raise ValueError("Mahler measure of the zero element is undefined")
    if f.rank != 1:
        raise ValueError("mahler_jensen requires a rank-1 element")
    exps = sorted(f.terms)
    lo, hi = exps[0], exps[-1]
    degree = hi - lo
    if degree > ROOT_DEGREE_CAP:
        raise ValueError(f"degree {degree} exceeds root-finder cap {ROOT_DEGREE_CAP}")
    # ascending coefficients of p(z) = f(z) * z^(-lo)
    coeffs = [0.0] * (degree + 1)
    for e, c in f.terms.items():
        coeffs[e - lo] = float(c)
    poly = np.array(coeffs[::-1])
    dpoly = np.polyder(poly)
    value = math.log(abs(coeffs[-1]))
    roots = []
    for r in np.roots(poly):
        dr = np.polyval(dpoly, r)
        if abs(dr) > 0:
            step = np.polyval(poly, r) / dr
            if abs(step) < 0.5 * max(abs(r), 1.0):
                r = r - step
        roots.append(r)
        if abs(r) > 1.0:
            value += math.log(abs(r))
    err = _jensen_error(poly, np.array(roots)) + (degree + 1) * 4e-16 * (1.0 + abs(value))
    return MahlerEstimate(
        value=value, error_bound=err, method="jensen", evaluations=len(roots)
    )


def _jensen_error(poly: np.ndarray, roots: np.ndarray) -> float:
    """Bound on |sum log+|z_i| - sum log+|alpha|| between the computed roots
    z_i and the roots alpha of poly (leading coefficient first).

    p / lead is the characteristic polynomial of diag(z) - W 1^T, W_i =
    p(z_i) / (lead prod_{j != i} (z_i - z_j)), so by Gerschgorin's theorem
    the roots lie in the discs |z - z_i| <= n |W_i|, k of them in each
    connected component of k discs.  Both the k roots and the k z_i of a
    component spanning the moduli [lo, hi] have log+ in [log+ lo, log+ hi]:
    a cluster whose discs meet |z| = 1, as repeated roots there do, adds
    at most k log hi.  Residuals carry their Horner rounding bound, and
    Cauchy's bound 1 + max |a_j / lead| caps hi.
    """
    n = len(roots)
    if n == 0:  # a constant or monomial f
        return 0.0
    lead = abs(poly[0])
    mags = np.abs(roots)
    rounding = 2.0 * n * _UNIT_ROUNDOFF * np.polyval(np.abs(poly), mags)
    residual = np.abs(np.polyval(poly, roots)) + rounding
    gaps = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gaps, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        radius = n * residual / (lead * np.prod(gaps, axis=1)) * (1.0 + 4.0 * n * _UNIT_ROUNDOFF)
    radius = np.where(np.isfinite(radius), radius, np.inf)
    # reach[i, j]: discs i and j lie in one connected component
    reach = (gaps <= radius[:, None] + radius[None, :]) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    cauchy = 1.0 + float(np.max(np.abs(poly[1:]))) / lead
    hi = np.minimum(cauchy, np.where(reach, mags + radius, 0.0).max(axis=1))
    lo = np.where(reach, mags - radius, np.inf).min(axis=1)
    # each disc adds its component's width, so a component of k discs adds k
    return float(np.sum(np.log(np.maximum(hi, 1.0)) - np.log(np.clip(lo, 1.0, None))))


def mahler_quadrature(f: GroupRingElement, grid: int) -> MahlerEstimate:
    """Mean of log|F| over a uniform torus grid (periodic trapezoid rule).

    ``grid`` must be an even number >= 4 so the half grid is a subgrid; the
    error bound is the observed change from the half grid plus a small
    float-roundoff floor, None unless the grid certifies F free of zeros
    (`certify_invertible_torus`), as both grids can alias alike.  Aborts
    with NearZeroError if any grid value of |F| falls below 1e-14 or below
    its evaluation error bound (`_grid_error_bound`), which suggests f may
    vanish on the torus.
    """
    _check_quadrature(f, grid)
    return _torus_scan(f, grid)[1]()


def _check_quadrature(f: GroupRingElement, grid: int) -> None:
    if f.is_zero:
        raise ValueError("Mahler measure of the zero element is undefined")
    if grid < 4 or grid % 2 != 0:
        raise ValueError("grid must be an even integer >= 4")


def certify_invertible_torus(f: GroupRingElement, grid: int) -> InvertibilityCertificate:
    """Grid-plus-Lipschitz check that F has no zero on the torus.

    With m the grid minimum of |F| less the forward-error bound of its
    floating-point evaluation (about FFT_LEVEL_ERROR * ||f||_1 *
    log2(grid^d) * u, see _grid_error_bound) and L = 2*pi * sum |f_s| *
    |s|_1 the Lipschitz constant of F, spacing h = 1/grid leaves any torus
    point within sqrt(d)*h/2 of the grid, so m > L*h/2*sqrt(d) certifies
    |F| >= m - L*h/2*sqrt(d) > 0 everywhere.  A grid value below 1e-10, or
    within the evaluation error of 0, reports a suspected zero instead;
    otherwise the verdict is unknown and a finer grid is needed.
    """
    if f.rank < 1:
        raise ValueError("torus certificate requires rank >= 1")
    return _torus_scan(f, grid)[0]


def _check_grid(rank: int, grid: int) -> None:
    """Refuse a grid below 2 points per axis or of more than GRID_CAP points."""
    if grid < 2:
        raise ValueError("grid must be >= 2 points per axis")
    if grid**rank > GRID_CAP:
        raise ResourceGuardError(
            f"torus grid of {grid**rank} points exceeds the grid cap {GRID_CAP}"
        )


def _torus_scan(f: GroupRingElement, grid: int) -> tuple:
    """(certify_invertible_torus(f, grid), quadrature) from one evaluation
    of |F| on the grid, where quadrature() is mahler_quadrature(f, grid)
    from the same values, with its near-zero refusal; every caller runs
    `_check_quadrature` before the scan.  The quadrature runs only when
    called, so a caller that takes its reference elsewhere pays for the
    scan and the certificate alone.
    """
    _check_grid(f.rank, grid)
    values = np.abs(_grid_values(f, grid))
    argmin = np.unravel_index(int(np.argmin(values)), values.shape)
    witness = tuple(int(i) / grid for i in argmin)
    vmin = float(values[argmin])
    float_error = _grid_error_bound(f, grid)
    lipschitz = 2.0 * math.pi * sum(
        abs(c) * element_norm1(s, f.rank) for s, c in f.terms.items()
    )
    lower = vmin - float_error - lipschitz / (2.0 * grid) * math.sqrt(f.rank)
    if vmin < max(NEAR_ZERO_CERTIFICATE, float_error):
        verdict = "not_invertible_suspected"
    elif lower > 0:
        verdict = "certified_invertible"
    else:
        verdict = "unknown"
    certified = verdict == "certified_invertible"
    certificate = InvertibilityCertificate(
        verdict=verdict, grid=grid, lipschitz_bound=lipschitz, min_abs=vmin,
        min_abs_lower_bound=lower if certified else None,
        witness=None if certified else witness, witness_abs=None if certified else vmin,
    )

    def quadrature() -> MahlerEstimate:
        if vmin < max(NEAR_ZERO_QUADRATURE, float_error):
            raise NearZeroError(
                f"|F| = {vmin:.3e} at grid point {witness}; "
                "f may be non-invertible on the torus",
                witness,
                vmin,
            )
        logs = np.log(values)
        value = float(np.mean(logs))
        value_half = float(np.mean(logs[(slice(None, None, 2),) * f.rank]))
        error = abs(value - value_half) + 5e-14 * (1.0 + abs(value)) if certified else None
        return MahlerEstimate(value=value, error_bound=error, method="quadrature",
                              evaluations=grid**f.rank, grid=grid)

    return certificate, quadrature
