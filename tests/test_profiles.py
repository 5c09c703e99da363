import decimal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from alap import profiles, quadrature
from alap.errors import DegenerateInputError

ALL_PROFILES = [
    profiles.make_power(1.5),
    profiles.make_power(2.0),
    profiles.make_power(3.0),
    profiles.make_power(4.0),
    profiles.make_piecewise(1.0, 2.0, 1.0),
    profiles.make_piecewise(2.0, 1.0, 1.0),
    profiles.make_logpower(1.0, 1.0, 1.0),
    profiles.make_logpower(2.0, 1.0, 1.0),
]


def test_power_basics():
    p3 = profiles.make_power(3.0)
    assert p3.a(2.0) == 4.0
    assert p3.a_inv(4.0) == 2.0
    assert p3.a0 == p3.a1 == 2.0


def test_power_two_is_linear():
    p2 = profiles.make_power(2.0)
    t = np.linspace(0.1, 5, 20)
    assert np.allclose(p2.a(t), t)
    assert p2.a0 == p2.a1 == 1.0


def test_power_ratio_constant():
    p = profiles.make_power(1.5)
    assert p.ratio(7.0) == pytest.approx(0.5)


def test_power_rejects_p_at_most_one():
    with pytest.raises(ValueError):
        profiles.make_power(1.0)
    with pytest.raises(ValueError):
        profiles.make_power(0.5)


def test_piecewise_matching_constants():
    # C^1 matching of t**1 against c2 t**2 + c3 at t0=1: c2 = c3 = 1/2
    pw = profiles.make_piecewise(1.0, 2.0, 1.0)
    assert pw.a(1.0) == pytest.approx(1.0)
    assert pw.a(2.0) == pytest.approx(0.5 * 4.0 + 0.5)
    assert pw.da(2.0) == pytest.approx(2.0)


def test_piecewise_ratio_limit_at_breakpoint():
    pw = profiles.make_piecewise(1.0, 2.0, 1.0)
    assert pw.ratio(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_piecewise_continuity_reversed_exponents():
    pw = profiles.make_piecewise(2.0, 1.0, 1.0)
    assert pw.a(1.0) == pytest.approx(1.0)
    assert pw.a(1.0 - 1e-13) == pytest.approx(1.0, rel=1e-10)


def test_piecewise_rejects_equal_exponents():
    with pytest.raises(ValueError):
        profiles.make_piecewise(2.0, 2.0, 1.0)


def test_logpower_value():
    lp = profiles.make_logpower(1.0, 1.0, 1.0)
    t = np.e - 1.0
    assert lp.a(t) == pytest.approx(t)


def test_logpower_roundtrip():
    lp = profiles.make_logpower(1.0, 1.0, 1.0)
    assert lp.a_inv(lp.a(3.7)) == pytest.approx(3.7, rel=1e-10)


def _brentq_inverse(prof, s):
    """The log-power inverse one value at a time by scipy's brentq, on the
    same doubled bracket and with the same two Newton polish steps: the
    reference of the vectorized inverse."""
    from scipy.optimize import brentq

    if s <= 0.0:
        return 0.0
    hi, t_max = 1.0, np.finfo(float).max
    while prof.a(hi) < s:
        hi = min(2.0 * hi, t_max)
    # s = 1e-300 takes brentq about 1100 steps from [0, 2]
    t = brentq(lambda x: float(prof.a(x)) - s, 0.0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=2000)
    for _ in range(2):
        t -= (float(prof.a(t)) - s) / float(prof.da(t))
    return t


@pytest.mark.parametrize(
    "prof", [p for p in ALL_PROFILES if p.family == "logpower"], ids=lambda p: str(p.params)
)
def test_logpower_inverse_matches_brentq(prof):
    bound = 4.0 * np.finfo(float).eps
    for s in (0.0, 1e-300, 1e-12, 1.0, 1e12):
        got = prof.a_inv(s)
        assert type(got) is float
        assert abs(got - _brentq_inverse(prof, s)) <= bound * got
    s = 10.0 ** np.random.default_rng(5).uniform(-12, 12, (6, 7))
    got = prof.a_inv(s)
    assert got.shape == s.shape
    ref = np.vectorize(lambda v: _brentq_inverse(prof, float(v)))(s)
    assert np.all(np.abs(got - ref) <= bound * ref)
    assert np.isnan(prof.a_inv(np.nan)) and prof.a_inv(np.inf) == np.inf


#: the log-power law of the damlog runs: a(t) < 1e6 for every float t
DAMLOG_PROFILE = profiles.make_logpower(0.01, 1000.0, 1.0)


@pytest.mark.parametrize(
    "prof", [p for p in ALL_PROFILES if p.family == "logpower"] + [DAMLOG_PROFILE],
    ids=lambda p: str(p.params),
)
def test_logpower_inverse_is_finite_up_to_a_of_1e300(prof):
    # the first bracket of earlier versions, 2 s**(1/alpha), overflowed for
    # alpha = 0.01 above s = 1200, and the search from inf returned nan
    with np.errstate(over="ignore"):
        top = min(float(prof.a(1e300)), 1e300)
    s = np.geomspace(1e-300, top, 120)
    got = prof.a_inv(s)
    assert np.all(np.isfinite(got)) and np.all(np.diff(got) > 0.0)
    ref = np.array([_brentq_inverse(prof, float(v)) for v in s])
    # a flatter law leaves a wider range of t that rounds to the same s:
    # an ulp of s spans 1 / ratio ulps of t, so both roots are exact there
    bound = 4.0 * np.finfo(float).eps * np.maximum(1.0, 1.0 / prof.ratio(ref))
    assert np.all(np.abs(got - ref) <= bound * ref)


def test_logpower_inverse_is_inf_beyond_a_of_float_max():
    prof = DAMLOG_PROFILE
    top = float(prof.a(np.finfo(float).max))
    assert 8e5 < top < 1e6  # a(t) of the damlog law stays below 1e6
    got = prof.a_inv(np.array([0.5 * top, top, 2.0 * top, 6.05e7]))
    assert np.isfinite(got[:2]).all() and np.all(got[2:] == np.inf)
    assert prof.a(got[1]) == pytest.approx(top, rel=1e-12)


def test_logpower_ratio_follows_the_law_up_to_float_max():
    # past beta t = float max the second term of a' once read 0, so the
    # ratio fell to alpha: 0.0100 at t = 2e305, where the law gives 0.011409
    alpha, beta, gamma = map(decimal.Decimal, DAMLOG_PROFILE.params)
    t = np.append(np.geomspace(1e-300, 1e308, 400), np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio = DAMLOG_PROFILE.ratio(t)
        report = profiles.certify_ellipticity(DAMLOG_PROFILE, t)
    assert report.passed  # within [a0, a1]
    with decimal.localcontext() as ctx:
        ctx.prec = 340  # log(beta t + gamma) of t = 1e-300 needs 300 digits
        bt = [beta * decimal.Decimal(float(v)) for v in t]
        law = np.array([float(alpha + b / ((b + gamma) * (b + gamma).ln())) for b in bt])
    assert np.all(np.abs(ratio - law) <= 1e-12 * law)
    assert DAMLOG_PROFILE.ratio(2e305) == pytest.approx(0.011409, rel=1e-4)


def test_logpower_rejects_small_gamma():
    with pytest.raises(ValueError):
        profiles.make_logpower(1.0, 1.0, 0.5)


def test_logpower_ratio_window():
    lp = profiles.make_logpower(1.0, 1.0, 1.0)
    t = np.logspace(-6, 6, 200)
    r = lp.ratio(t)
    assert np.all(r >= 1.0) and np.all(r <= 2.0)


def test_flux_identity_for_linear_law():
    p2 = profiles.make_power(2.0)
    assert np.allclose(profiles.flux(p2, np.array([3.0, 4.0])), [3.0, 4.0])


def test_flux_zero_extension():
    for prof in ALL_PROFILES:
        assert np.all(profiles.flux(prof, np.zeros(2)) == 0.0)


def test_flux_cubic_law():
    p3 = profiles.make_power(3.0)
    # a(5)/5 = 5 by hand
    assert np.allclose(profiles.flux(p3, np.array([3.0, 4.0])), [15.0, 20.0])


def test_flux_magnitude_bound():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(500, 2))
    for prof in ALL_PROFILES:
        mags = np.linalg.norm(profiles.flux(prof, g), axis=-1)
        assert np.allclose(mags, prof.a(np.linalg.norm(g, axis=-1)))


def test_monotonicity_gap_hand_values():
    p2 = profiles.make_power(2.0)
    assert profiles.monotonicity_gap(p2, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)
    p3 = profiles.make_power(3.0)
    assert profiles.monotonicity_gap(p3, np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(3.0)


def test_monotonicity_gap_rejects_degenerate():
    p2 = profiles.make_power(2.0)
    with pytest.raises(DegenerateInputError):
        profiles.monotonicity_gap(p2, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(DegenerateInputError):
        profiles.monotonicity_gap(p2, np.array([0.0, 0.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("prof", ALL_PROFILES, ids=lambda p: f"{p.family}{p.params}")
def test_monotonicity_gap_positive_random_pairs(prof):
    rng = np.random.default_rng(12345)
    xi = rng.normal(size=(10_000, 2))
    zeta = rng.normal(size=(10_000, 2))
    gaps = profiles.monotonicity_gap(prof, xi, zeta)
    assert np.all(gaps > 0.0)


@pytest.mark.parametrize("prof", ALL_PROFILES, ids=lambda p: f"{p.family}{p.params}")
def test_ellipticity_window_all_profiles(prof):
    rep = profiles.certify_ellipticity(prof, np.logspace(-6, 6, 200))
    assert rep.passed, rep.failures[:3]


def test_ellipticity_report_values():
    rep4 = profiles.certify_ellipticity(profiles.make_power(4.0), np.logspace(-3, 3, 50))
    assert rep4.min_ratio == pytest.approx(3.0) and rep4.max_ratio == pytest.approx(3.0)
    pw = profiles.make_piecewise(1.0, 2.0, 1.0)
    rep = profiles.certify_ellipticity(pw, np.logspace(-8, 8, 400))
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-6)
    assert rep.max_ratio == pytest.approx(2.0, abs=1e-3)
    lp = profiles.make_logpower(2.0, 1.0, 1.0)
    rep = profiles.certify_ellipticity(lp, np.logspace(-6, 6, 200))
    assert 2.0 - 1e-9 <= rep.min_ratio and rep.max_ratio <= 3.0 + 1e-9


def test_ellipticity_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        profiles.certify_ellipticity(profiles.make_power(2.0), [0.0, 1.0])


@pytest.mark.parametrize("prof", ALL_PROFILES, ids=lambda p: f"{p.family}{p.params}")
def test_inverse_roundtrip_wide_range(prof):
    t = np.logspace(-6, 6, 60)
    back = prof.a_inv(prof.a(t))
    assert np.all(np.abs(back - t) <= 1e-10 * t)


@pytest.mark.parametrize("prof", ALL_PROFILES, ids=lambda p: f"{p.family}{p.params}")
def test_primitive_matches_quadrature(prof):
    for t in (0.3, 1.7, 12.0):
        ref, _ = quad(lambda s: float(prof.a(s)), 0.0, t, epsabs=1e-14, epsrel=1e-12)
        assert float(prof.big_a(t)) == pytest.approx(ref, rel=1e-8)


def test_gauss_table_is_bit_identical_to_leggauss():
    """The table built on first use holds the bits of the direct 32-node
    ``leggauss`` call mapped to [0, 1], and it cannot be written to."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    x01, w01 = quadrature._gauss_legendre_01()
    assert x01.tobytes() == (0.5 * (nodes + 1.0)).tobytes()
    assert w01.tobytes() == (0.5 * weights).tobytes()
    assert quadrature._gauss_legendre_01() is quadrature._gauss_legendre_01()
    with pytest.raises(ValueError):
        x01[0] = 0.0


def test_make_from_family_config_keys():
    prof = profiles.make_from_family("power", p=2.5)
    assert prof.a0 == pytest.approx(1.5)
    with pytest.raises(ValueError):
        profiles.make_from_family("nope")
    with pytest.raises(ValueError):
        profiles.make_from_family("power", q=2.0)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.floats(-30, 30), st.floats(-30, 30), st.floats(-30, 30), st.floats(-30, 30)
    )
)
def test_monotonicity_gap_property(vec):
    xi = np.array(vec[:2])
    zeta = np.array(vec[2:])
    if np.all(xi == zeta) or not xi.any() or not zeta.any():
        return
    # below ~1e-12 the quadratic flux underflows and the gap rounds to 0
    if min(np.linalg.norm(xi), np.linalg.norm(zeta), np.linalg.norm(xi - zeta)) < 1e-12:
        return
    lp = profiles.make_logpower(1.0, 1.0, 1.0)
    assert profiles.monotonicity_gap(lp, xi, zeta) > 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-5, 1e5))
def test_inverse_roundtrip_property(t):
    pw = profiles.make_piecewise(1.0, 2.0, 1.0)
    assert float(pw.a_inv(pw.a(t))) == pytest.approx(t, rel=1e-10)
