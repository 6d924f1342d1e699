import math
import random

import numpy as np
import pytest

from sofic import spectral
from sofic import (
    GroupRingElement,
    NearZeroError,
    certify_invertible_torus,
    involution,
    left_translate,
    mahler_jensen,
    mahler_quadrature,
    parse_laurent,
)


# ---------------------------------------------------------------------------
# Jensen-formula values (rank 1)


def test_jensen_monomial_is_zero():
    est = mahler_jensen(parse_laurent("x", 1))
    assert est.value == pytest.approx(0.0, abs=1e-14)
    assert est.method == "jensen"


def test_jensen_linear():
    est = mahler_jensen(parse_laurent("x - 2", 1))
    assert est.value == pytest.approx(math.log(2), abs=1e-12)
    assert est.error_bound < 1e-9


def test_jensen_two_sided():
    # roots of -z^2 + 3z - 1 are (3 +- sqrt 5)/2; the measure is the log
    # of the root outside the unit circle
    expected = math.log((3 + math.sqrt(5)) / 2)
    est = mahler_jensen(parse_laurent("3 - x - x^-1", 1))
    assert est.value == pytest.approx(expected, abs=1e-12)


def test_jensen_constant_and_scaling():
    assert mahler_jensen(parse_laurent("7", 1)).value == pytest.approx(math.log(7))
    # monomial factors do not change the measure
    assert mahler_jensen(parse_laurent("7*x^3", 1)).value == pytest.approx(math.log(7))


def test_jensen_rejects_zero_and_wrong_rank():
    with pytest.raises(ValueError):
        mahler_jensen(GroupRingElement(1, {}))
    with pytest.raises(ValueError):
        mahler_jensen(parse_laurent("x + y", 2))


def test_jensen_degree_cap():
    f = GroupRingElement(1, {0: 1, 100: 1})
    with pytest.raises(ValueError, match="cap"):
        mahler_jensen(f)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_constant_exact():
    for k in (1, 2, 9):
        est = mahler_quadrature(parse_laurent(str(k), 1), 16)
        assert est.value == pytest.approx(math.log(k), abs=1e-15)
        assert est.evaluations == 16
    est3 = mahler_quadrature(parse_laurent("7", 3), 8)
    assert est3.value == pytest.approx(math.log(7), abs=1e-14)
    assert est3.evaluations == 512


def test_quadrature_matches_jensen_linear():
    est = mahler_quadrature(parse_laurent("x - 2", 1), 4096)
    assert abs(est.value - math.log(2)) <= 1e-9


def test_quadrature_rank2_self_consistency():
    f = parse_laurent("5 - x - x^-1 - y - y^-1", 2)
    coarse = mahler_quadrature(f, 256)
    fine = mahler_quadrature(f, 512)
    assert abs(coarse.value - fine.value) <= 1e-6
    assert fine.evaluations == 512 * 512
    assert fine.grid == 512


def test_quadrature_near_zero_aborts():
    with pytest.raises(NearZeroError) as info:
        mahler_quadrature(parse_laurent("x - 1", 1), 64)
    assert info.value.witness == (0.0,)
    with pytest.raises(NearZeroError):
        mahler_quadrature(parse_laurent("4 - x - x^-1 - y - y^-1", 2), 64)


def test_quadrature_grid_validation():
    f = parse_laurent("x - 2", 1)
    with pytest.raises(ValueError):
        mahler_quadrature(f, 63)
    with pytest.raises(ValueError):
        mahler_quadrature(f, 2)


# ---------------------------------------------------------------------------
# invertibility certificates


def test_certificate_two_sided_certified():
    cert = certify_invertible_torus(parse_laurent("3 - x - x^-1", 1), 1024)
    assert cert.verdict == "certified_invertible"
    assert cert.min_abs == pytest.approx(1.0, abs=1e-9)
    assert 0.98 < cert.min_abs_lower_bound < 1.0


def test_certificate_constant():
    cert = certify_invertible_torus(parse_laurent("5", 1), 16)
    assert cert.verdict == "certified_invertible"
    assert cert.min_abs_lower_bound == pytest.approx(5.0, abs=1e-11)
    assert cert.lipschitz_bound == 0.0


def test_certificate_vanishing_witness():
    cert = certify_invertible_torus(parse_laurent("4 - x - x^-1 - y - y^-1", 2), 512)
    assert cert.verdict == "not_invertible_suspected"
    assert cert.witness == (0.0, 0.0)
    assert cert.witness_abs == pytest.approx(0.0, abs=1e-12)


def test_certificate_unknown_on_coarse_grid():
    # min |F| = 1 but the Lipschitz margin at a tiny grid cannot certify it
    cert = certify_invertible_torus(parse_laurent("10001 - 10000*x", 1), 64)
    assert cert.verdict == "unknown"


def test_certificate_soundness_on_vanishing_inputs():
    # constructed zeros on the torus must never certify, at any grid
    vanishing = [
        parse_laurent("x - 1", 1),
        parse_laurent("x + 1", 1),
        parse_laurent("2 - x - x^-1", 1),
        parse_laurent("4 - x - x^-1 - y - y^-1", 2),
        parse_laurent("1 + x + y - 3*x*y", 2),
    ]
    for f in vanishing:
        for grid in (8, 64, 256):
            cert = certify_invertible_torus(f, grid)
            assert cert.verdict != "certified_invertible", (f.render(), grid)


def _exact_abs(f, theta, mp):
    """|F(theta)| at 50 digits, for a rank-1 f."""
    mp.mp.dps = 50
    return abs(
        sum(mp.mpf(c) * mp.expj(2 * mp.pi * s * theta) for s, c in f.terms.items())
    )


def test_certificate_margin_covers_float_error_at_large_norm():
    # at ||f||_1 ~ 10^9 the FFT error at the grid minimiser is ~3e-8, far
    # above a fixed 1e-12 margin; the certificate must subtract more
    mp = pytest.importorskip("mpmath")
    big = 10**8
    f = GroupRingElement(1, {0: 5 * big, 1: 2 * big, -1: big, 3: -big})
    grid = 1024
    cert = certify_invertible_torus(f, grid)
    assert cert.is_certified
    values = np.abs(spectral._grid_values(f, grid))
    j = int(np.argmin(values))
    assert values[j] == cert.min_abs
    exact = _exact_abs(f, mp.mpf(j) / grid, mp)
    error = abs(float(exact - mp.mpf(cert.min_abs)))
    margin = cert.min_abs - cert.min_abs_lower_bound - cert.lipschitz_bound / (2 * grid)
    assert 1e-12 < error <= margin
    assert cert.min_abs_lower_bound <= float(exact)

    # the whole grid of K * (3 - x - x^-1 + x^2 - x^-3) stays within the bound
    g = GroupRingElement(1, {0: 3 * big, 1: -big, -1: -big, 2: big, -3: -big})
    grid = 256
    values = np.abs(spectral._grid_values(g, grid))
    bound = spectral._grid_error_bound(g, grid)
    worst = max(
        abs(float(_exact_abs(g, mp.mpf(k) / grid, mp) - mp.mpf(values[k])))
        for k in range(grid)
    )
    assert 1e-12 < worst <= bound


def test_certificate_grid_validation():
    with pytest.raises(ValueError):
        certify_invertible_torus(parse_laurent("3 - x", 1), 1)


# ---------------------------------------------------------------------------
# cross-validation battery


def _random_certified_poly(rng):
    while True:
        terms = {e: rng.randint(-3, 3) for e in range(-3, 4)}
        f = GroupRingElement(1, terms)
        if f.is_zero:
            continue
        cert = certify_invertible_torus(f, 4096)
        if cert.verdict == "certified_invertible":
            return f


def test_jensen_quadrature_agree_on_random_battery():
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        f = _random_certified_poly(rng)
        jensen = mahler_jensen(f)
        quad = mahler_quadrature(f, 8192)
        assert abs(jensen.value - quad.value) <= jensen.error_bound + quad.error_bound, f.render()
        checked += 1


def test_mahler_invariances():
    rng = random.Random(67)
    for _ in range(10):
        f = _random_certified_poly(rng)
        base = mahler_jensen(f)
        mirrored = mahler_jensen(involution(f))
        shifted = mahler_jensen(left_translate(f, rng.randint(-3, 3)))
        tol = 2 * (base.error_bound + mirrored.error_bound)
        assert abs(base.value - mirrored.value) <= max(tol, 1e-12)
        tol = 2 * (base.error_bound + shifted.error_bound)
        assert abs(base.value - shifted.value) <= max(tol, 1e-12)
