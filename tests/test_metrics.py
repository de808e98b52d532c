import numpy as np
import pytest
from scipy import stats

from craterid.conic2d import EllipseParams, ellipse_to_conic
from craterid.errors import EmptyUnionError, NotAnEllipseError, NumericAnomalyError
from craterid.metrics import (
    CHI2_4_P99,
    GateConfig,
    conic_to_gaussian,
    gate_statistic,
    gaussian_angle,
    gaussian_angle_sf,
    jaccard_distance,
)

from conftest import random_ellipse


def _conic(*args, **kw):
    return ellipse_to_conic(EllipseParams(*args, **kw))


def _similarity(conic, s, th, tx, ty):
    """Apply a similarity transform to a conic (locus mapping rule)."""
    c, si = np.cos(th), np.sin(th)
    m = np.array([[s * c, -s * si, tx], [s * si, s * c, ty], [0, 0, 1.0]])
    mi = np.linalg.inv(m)
    return mi.T @ conic @ mi


# -- conic_to_gaussian --------------------------------------------------------


def test_gaussian_unit_circle():
    g = conic_to_gaussian(_conic(1, 1))
    assert np.allclose(g.y, [0, 0])
    assert np.allclose(g.shape, np.eye(2))


def test_gaussian_spectral_reconstruction():
    g = conic_to_gaussian(_conic(3, 2, 5, -1, 0.7))
    assert np.allclose(g.y, [5, -1])
    ev, evec = np.linalg.eigh(g.shape)
    assert np.allclose(np.sort(ev), [1 / 9, 1 / 4], rtol=1e-10)
    ang = np.arctan2(evec[1, 0], evec[0, 0]) % np.pi
    assert ang == pytest.approx(0.7, abs=1e-9)


def test_gaussian_scale_free():
    c = _conic(3, 2, 5, -1, 0.7)
    g1 = conic_to_gaussian(c)
    g2 = conic_to_gaussian(7.0 * c)
    assert np.allclose(g1.y, g2.y)
    assert np.allclose(g1.shape, g2.shape)


def test_gaussian_rejects_non_ellipse():
    with pytest.raises(NotAnEllipseError):
        conic_to_gaussian(np.diag([1.0, -1.0, 1.0]))


# -- gaussian angle -----------------------------------------------------------


def test_gaussian_angle_hand_values():
    assert gaussian_angle(_conic(1, 1), _conic(1, 1)) == 0.0
    d = gaussian_angle(_conic(1, 1, 0, 0), _conic(1, 1, 2, 0))
    assert d == pytest.approx(np.arccos(np.exp(-1.0)), abs=1e-12)
    assert d == pytest.approx(1.19403, abs=5e-5)
    d2 = gaussian_angle(_conic(1, 1), _conic(2, 2))
    assert d2 == pytest.approx(np.arccos(0.64), abs=1e-12)
    assert d2 == pytest.approx(0.87630, abs=5e-5)


def test_gaussian_angle_axioms():
    rng = np.random.default_rng(0)
    worst_tri = -np.inf
    for _ in range(10_000):
        ca = ellipse_to_conic(random_ellipse(rng))
        cb = ellipse_to_conic(random_ellipse(rng))
        cc = ellipse_to_conic(random_ellipse(rng))
        dab = gaussian_angle(ca, cb)
        # symmetry is exact by construction
        assert gaussian_angle(cb, ca) == dab
        # range
        assert 0.0 <= dab <= np.pi / 2 + 1e-12
        worst_tri = max(worst_tri, dab - gaussian_angle(ca, cc) - gaussian_angle(cc, cb))
    assert worst_tri <= 1e-9


def test_gaussian_angle_minimality():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = ellipse_to_conic(random_ellipse(rng))
        assert gaussian_angle(c, c) == 0.0


def test_gaussian_angle_similarity_invariance():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        ca = ellipse_to_conic(random_ellipse(rng))
        cb = ellipse_to_conic(random_ellipse(rng))
        d0 = gaussian_angle(ca, cb)
        s = rng.uniform(0.3, 4.0)
        th = rng.uniform(0, 2 * np.pi)
        tx, ty = rng.uniform(-20, 20, 2)
        d1 = gaussian_angle(
            _similarity(ca, s, th, tx, ty), _similarity(cb, s, th, tx, ty)
        )
        assert d1 == pytest.approx(d0, abs=1e-9)


def test_gaussian_angle_anomaly_guard():
    g = conic_to_gaussian(_conic(2, 1))
    from craterid.metrics import GaussianEllipse

    bad = GaussianEllipse(y=np.array([np.nan, 0.0]), shape=np.eye(2))
    with pytest.raises(NumericAnomalyError):
        gaussian_angle(g, bad)


# -- jaccard ------------------------------------------------------------------


def test_jaccard_identical_and_disjoint():
    c = _conic(2, 1, 0, 0, 0.3)
    assert jaccard_distance(c, c, pitch=0.05) == 0.0
    far = _conic(2, 1, 50, 0, 0.3)
    assert jaccard_distance(c, far, pitch=0.05) == 1.0


def test_jaccard_unit_circle_lens():
    d = jaccard_distance(_conic(1, 1, 0, 0), _conic(1, 1, 1, 0), pitch=1 / 512)
    lens = 2 * np.arccos(0.5) - 0.5 * np.sqrt(3)
    expect = 1 - lens / (2 * np.pi - lens)
    assert expect == pytest.approx(0.75700, abs=1e-4)
    assert d == pytest.approx(expect, abs=1e-3)


def test_jaccard_symmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ca = ellipse_to_conic(random_ellipse(rng, span=3.0))
        cb = ellipse_to_conic(random_ellipse(rng, span=3.0))
        assert jaccard_distance(ca, cb, pitch=0.08) == jaccard_distance(
            cb, ca, pitch=0.08
        )


def test_jaccard_triangle_inequality_on_shared_grid():
    # On one shared sample set the estimate is an exact finite-set metric.
    rng = np.random.default_rng(4)
    xs = np.linspace(-8, 8, 140)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    count = 0
    while count < 10_000:
        ca = ellipse_to_conic(random_ellipse(rng, span=3.0))
        cb = ellipse_to_conic(random_ellipse(rng, span=3.0))
        cc = ellipse_to_conic(random_ellipse(rng, span=3.0))
        dab = jaccard_distance(ca, cb, sample_points=pts)
        dac = jaccard_distance(ca, cc, sample_points=pts)
        dcb = jaccard_distance(cc, cb, sample_points=pts)
        assert dab <= dac + dcb + 1e-9
        count += 1


def test_jaccard_similarity_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        e1 = random_ellipse(rng, span=3.0)
        e2 = random_ellipse(rng, span=3.0)
        ca, cb = ellipse_to_conic(e1), ellipse_to_conic(e2)
        pitch = 0.35
        d0 = jaccard_distance(ca, cb, pitch=pitch)
        s = rng.uniform(0.4, 3.0)
        th = rng.uniform(0, 2 * np.pi)
        tx, ty = rng.uniform(-30, 30, 2)
        d1 = jaccard_distance(
            _similarity(ca, s, th, tx, ty),
            _similarity(cb, s, th, tx, ty),
            pitch=pitch * s,
        )
        assert d1 == pytest.approx(d0, abs=1e-9)


def test_jaccard_grid_convergence():
    ca = _conic(2.0, 1.3, 0, 0, 0.4)
    cb = _conic(1.7, 1.1, 1.2, 0.6, 1.1)
    vals = [jaccard_distance(ca, cb, pitch=p) for p in (0.08, 0.04, 0.02, 0.01)]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    d3 = abs(vals[3] - vals[2])
    assert d3 < 2 * d2 or d3 < 1e-4
    assert d2 < 2 * d1 or d2 < 1e-4


def test_jaccard_empty_union_error():
    tiny = _conic(1e-6, 1e-6, 0.5, 0.5)
    other = _conic(1e-6, 1e-6, -0.5, -0.5)
    with pytest.raises(EmptyUnionError):
        jaccard_distance(tiny, other, pitch=10.0)


# -- gate ---------------------------------------------------------------------


def test_gate_threshold_constant():
    assert CHI2_4_P99 == 13.277
    # three-decimal match to the actual chi-square(4) 99th percentile
    assert stats.chi2.ppf(0.99, 4) == pytest.approx(13.277, abs=5e-4)


def test_gate_accept_reject():
    cfg = GateConfig(sigma_img=1.0)
    # The paper's scalar noise scale of d for a circular 10 px rim.
    sigma = 0.85 * 1.0 / np.sqrt(10.0 * 10.0)
    d_accept = sigma * np.sqrt(10.0)
    d_reject = sigma * np.sqrt(20.0)
    assert gate_statistic(d_accept, 10.0, 10.0, cfg.sigma_img) <= cfg.threshold
    assert gate_statistic(d_reject, 10.0, 10.0, cfg.sigma_img) > cfg.threshold
    with pytest.raises(ValueError):
        gate_statistic(0.1, -1.0, 10.0, cfg.sigma_img)
    with pytest.raises(ValueError):
        GateConfig(sigma_img=0.0)


def test_statistic_is_chi2_under_fit_error_model():
    """Localizes the distributional claim for the gate statistic.

    To first order, axis errors of std s_ax and center errors of std s_c give
    d^2 ab = (b/a) da^2 + (a/b) db^2 + (b/2a) du^2 + (a/2b) dv^2.  With
    s_c = s_ax * sqrt(2) (the covariance pattern of a least-squares rim fit)
    all four weights are ~1 for near-circular rims, so d^2 / (s/sqrt(ab))^2
    follows chi-square(4); a KS test at the 1% level passes comfortably.
    Under iid noise (s_c = s_ax) the center weights halve and no scalar
    scale gives chi-square(4), which is why the gate uses gate_statistic.
    """
    rng = np.random.default_rng(6)
    a, b, s = 60.0, 55.0, 1.0
    base = _conic(a, b, 0, 0, 0.3)
    n = 20_000
    vals = np.empty(n)
    for t in range(n):
        while True:
            da, db = rng.normal(0.0, s, 2)
            du, dv = rng.normal(0.0, s * np.sqrt(2.0), 2)
            if a + da >= b + db > 0:
                break
        pert = _conic(a + da, b + db, du, dv, 0.3)
        vals[t] = gaussian_angle(base, pert) ** 2 / (s / np.sqrt(a * b)) ** 2
    ks = stats.kstest(vals, "chi2", args=(4,))
    assert ks.pvalue > 0.01


def test_gaussian_angle_sf_closed_form_at_circle():
    # At a = b the weighted chi-square is Exp(mean 2) + Exp(mean 1), in units
    # of sigma_img^2 / (ab): P(X > x) = 2 exp(-x/2) - exp(-x).  The gate
    # reads X off d as -2 log cos(d) ab / sigma_img^2.
    a, sigma_img = 20.0, 0.7
    x = np.array([0.0, 0.05, 0.5, 2.0, 6.0, 13.0, 30.0, 80.0, 200.0])
    d = np.arccos(np.exp(-0.5 * x * sigma_img**2 / a**2))
    expect = 2.0 * np.exp(-x / 2.0) - np.exp(-x)
    np.testing.assert_allclose(gaussian_angle_sf(d, a, a, sigma_img), expect, rtol=1e-12)
    np.testing.assert_allclose(
        gate_statistic(d, a, a, sigma_img), stats.chi2.isf(expect, 4), rtol=1e-9
    )
    assert isinstance(gate_statistic(d[3], a, a, sigma_img), float)
    with pytest.raises(ValueError):
        gaussian_angle_sf(0.1, 10.0, 0.0, 1.0)


def test_gate_statistic_is_chi2_under_weighted_model():
    # Samples of the first-order law -2 log cos(d) ab / s^2 = (b/a) z1^2
    # + (a/b) z2^2 + (b/2a) z3^2 + (a/2b) z4^2 map onto chi-square(4) at any
    # ellipticity, so the nominal 99% threshold rejects 1% of true matches.
    rng = np.random.default_rng(11)
    n, s = 40_000, 1.5
    for a, b in ((55.0, 50.0), (80.0, 40.0), (120.0, 30.0)):
        z = rng.standard_normal((n, 4))
        x = z**2 @ np.array([b / a, a / b, b / (2 * a), a / (2 * b)])
        vals = gate_statistic(np.arccos(np.exp(-0.5 * x * s**2 / (a * b))), a, b, s)
        assert stats.kstest(vals, "chi2", args=(4,)).pvalue > 0.01
        reject = np.mean(vals > CHI2_4_P99)
        assert abs(reject - 0.01) < 4.0 * np.sqrt(0.01 * 0.99 / n)


def test_gate_rejects_unrelated_rims_of_elongated_detection():
    # A detection far thinner than its fit noise makes the weighted
    # chi-square very wide (weight a/b ~ 55 on the minor axis).  Two
    # unrelated rims (d = pi/2) must still fail the gate: on d^2, which
    # saturates at (pi/2)^2, this case scored 3.8 and passed.
    cfg = GateConfig(sigma_img=0.5)
    assert gate_statistic(0.5 * np.pi, 19.2, 0.35, cfg.sigma_img) > cfg.threshold
    assert gate_statistic(0.5 * np.pi, 19.2, 0.35, 0.5) > 30.0
