import math
import random

import numpy as np
import pytest

from sofic import spectral
from sofic import (
    GroupRingElement,
    MahlerEstimate,
    NearZeroError,
    ResourceGuardError,
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
    # a constant or monomial has no roots: log|c| exactly, the rounding floor
    # 4e-16 (1 + |log|c||) as its bound, and no evaluations
    for text, value, bound in [
        ("7", 1.9459101490553132, 1.1783640596221253e-15),
        ("-3", 1.0986122886681098, 8.39444915467244e-16),
        ("3*x^5", 1.0986122886681098, 8.39444915467244e-16),
        ("-2*x^-4", 0.6931471805599453, 6.772588722239782e-16),
        ("9223372036854775807", 43.66827237527655, 1.786730895011062e-14),
    ]:
        estimate = mahler_jensen(parse_laurent(text, 1))
        assert (estimate.value, estimate.error_bound, estimate.evaluations) == (
            value, bound, 0), text


def test_jensen_rejects_zero_and_wrong_rank():
    with pytest.raises(ValueError):
        mahler_jensen(GroupRingElement(1, {}))
    with pytest.raises(ValueError):
        mahler_jensen(parse_laurent("x + y", 2))


def test_jensen_degree_cap():
    f = GroupRingElement(1, {0: 1, 100: 1})
    with pytest.raises(ValueError, match="cap"):
        mahler_jensen(f)


def _mp_mahler(ascending, mp):
    """log M of a polynomial with simple roots, from mpmath roots at 80 digits."""
    mp.mp.dps = 80
    roots = mp.polyroots(ascending[::-1], maxsteps=200, extraprec=200)
    return mp.log(abs(ascending[-1])) + sum(mp.log(abs(r)) for r in roots if abs(r) > 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_jensen_bound_holds_against_mpmath_battery():
    # repeated roots on |z| = 1 defeat a per-root residual bound (the
    # reproducer 5 - 7x - 3x^2 + 7x^3 - 2x^4 = (1 - x)^2 (5 + 3x - 2x^2) was
    # off by 6.5e-9 under a bound of 5.5e-15); M is multiplicative, so each
    # product is checked against the sum of its factors' mpmath values
    mp = pytest.importorskip("mpmath")
    factors = {
        "1 - x": ([1, -1], 1),
        "(1 - x)^2": ([1, -1], 2),
        "(1 - x)^3": ([1, -1], 3),
        "1 + x + x^2": ([1, 1, 1], 1),
        "1 + x^2": ([1, 0, 1], 1),
        "(1 - x)(2 - x)": ([2, -3, 1], 1),
        "Lehmer": ([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], 1),
    }
    factor_values = {name: power * _mp_mahler(h, mp) for name, (h, power) in factors.items()}
    rng = random.Random(191)
    cases = [([5, -7, -3, 7, -2], mp.log(5), "reproducer")]
    for i in range(250):
        g = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
        g[0], g[-1] = g[0] or 1, g[-1] or -1
        name = None if i % 4 == 0 else rng.choice(sorted(factors))
        ascending, want = g, _mp_mahler(g, mp)
        if name:
            h, power = factors[name]
            for _ in range(power):
                ascending = _poly_mul(ascending, h)
            want += factor_values[name]
        cases.append((ascending, want, name))
    seen = set()
    for ascending, want, name in cases:
        est = mahler_jensen(GroupRingElement(1, {e: c for e, c in enumerate(ascending) if c}))
        assert abs(mp.mpf(est.value) - want) <= est.error_bound, (name, ascending)
        seen.add(name)
    assert seen == set(factors) | {None, "reproducer"}


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


def test_quadrature_claims_a_bound_only_on_a_certified_grid():
    # at grid 256, x^256 folds onto the constant term: the grid and its half
    # both read log 3 - log 1 = 0 for 3 - x^256 - x^-256, which has measure
    # m(3 - x - x^-1) = 0.962..., and the certificate is unknown
    f = parse_laurent("3 - x^256 - x^-256 + y - y", 2)
    aliased = mahler_quadrature(f, 256)
    assert (aliased.value, aliased.error_bound) == (0.0, None)
    assert certify_invertible_torus(f, 256).verdict == "unknown"
    fine = mahler_quadrature(parse_laurent("3 - x - x^-1", 2), 256)
    assert fine.error_bound is not None
    assert abs(fine.value - 0.9624236501192069) <= fine.error_bound
    # an estimate may carry no bound, but not a negative or infinite one
    assert MahlerEstimate(value=0.5, error_bound=None, method="quadrature", evaluations=4).error_bound is None


def test_quadrature_near_zero_aborts():
    with pytest.raises(NearZeroError) as info:
        mahler_quadrature(parse_laurent("x - 1", 1), 64)
    assert info.value.witness == (0.0,)
    with pytest.raises(NearZeroError):
        mahler_quadrature(parse_laurent("4 - x - x^-1 - y - y^-1", 2), 64)
    # min |F| = 1.75e-9 on this grid is rounding noise at exact zeros: it is
    # above the absolute 1e-14 floor but below the evaluation error bound
    f = parse_laurent("-5124073 - 10399369*x + 6882505*x^-1 + 8640937*x^2", 2)
    values = np.abs(spectral._grid_values(f, 30))
    assert spectral.NEAR_ZERO_QUADRATURE < values.min() < spectral._grid_error_bound(f, 30)
    with pytest.raises(NearZeroError):
        mahler_quadrature(f, 30)
    assert certify_invertible_torus(f, 30).verdict == "not_invertible_suspected"


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


@pytest.mark.parametrize("make, message", [
    (lambda: certify_invertible_torus(GroupRingElement(0, {(): 3}), 16),
     "torus certificate requires rank >= 1"),
    (lambda: MahlerEstimate(value=math.inf, error_bound=0.0, method="jensen", evaluations=1),
     "estimate value must be finite"),
    (lambda: MahlerEstimate(value=0.5, error_bound=-1e-3, method="jensen", evaluations=1),
     "error bound must be finite and nonnegative"),
], ids=["rank-0 certificate", "infinite estimate", "negative error bound"])
def test_certificate_and_estimate_refusal_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_grid_cap_refuses_before_any_evaluation(monkeypatch):
    # the cap admits the largest grids in use, 2048 per axis at rank 2 and
    # 8192 at rank 1, and refuses one more point per axis before evaluating
    spectral._check_grid(2, 2048)
    spectral._check_grid(1, 8192)
    monkeypatch.setattr(spectral, "_grid_values", _refuse)
    f = parse_laurent("5 - x - x^-1 - y - y^-1", 2)
    for scan in (certify_invertible_torus, mahler_quadrature):
        with pytest.raises(ResourceGuardError, match="^torus grid of 4202500 points exceeds"):
            scan(f, 2050)


def _refuse(*args):
    raise AssertionError("the grid was evaluated")


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
