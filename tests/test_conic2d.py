import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craterid.conic2d import (
    EllipseParams,
    adjugate,
    conic_center,
    conic_to_ellipse,
    degenerate_pencil_eigenvalues,
    ellipse_to_conic,
    is_proper_ellipse,
    line_between_conics,
    normalize_unit_det,
    pencil_separating_line,
    split_degenerate_conic,
)
from craterid.errors import (
    AmbiguousSeparationError,
    InvalidAxesError,
    NotAnEllipseError,
    SingularConicError,
    WrongEigenvalueBranchError,
)

from conftest import random_ellipse


def test_ellipse_params_validation():
    with pytest.raises(InvalidAxesError):
        EllipseParams(a=1.0, b=2.0)
    with pytest.raises(InvalidAxesError):
        EllipseParams(a=1.0, b=0.0)
    # psi reduced to [0, pi)
    assert EllipseParams(2, 1, psi=np.pi + 0.3).psi == pytest.approx(0.3)


def test_unit_circle_conic():
    c = ellipse_to_conic(EllipseParams(1, 1))
    assert np.allclose(c, np.diag([1.0, 1.0, -1.0]))


def test_axis_aligned_two_one():
    c = ellipse_to_conic(EllipseParams(2, 1))
    assert c[0, 0] == pytest.approx(1.0)
    assert c[1, 1] == pytest.approx(4.0)
    assert c[2, 2] == pytest.approx(-4.0)
    assert c[0, 1] == c[0, 2] == c[1, 2] == 0.0
    # boundary points satisfy the form
    for x, y in [(2, 0), (-2, 0), (0, 1), (0, -1)]:
        v = np.array([x, y, 1.0])
        assert abs(v @ c @ v) < 1e-12


def test_rotated_ninety_swaps_axes():
    c = ellipse_to_conic(EllipseParams(2, 1, psi=np.pi / 2))
    assert c[0, 0] == pytest.approx(4.0)
    assert c[1, 1] == pytest.approx(1.0)
    assert c[2, 2] == pytest.approx(-4.0)
    for x, y in [(1, 0), (0, 2), (-1, 0), (0, -2)]:
        v = np.array([x, y, 1.0])
        assert abs(v @ c @ v) < 1e-10


def test_discriminant_identity():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        e = random_ellipse(rng)
        c = ellipse_to_conic(e)
        A, C = c[0, 0], c[1, 1]
        B = 2 * c[0, 1]
        lhs = B * B - 4 * A * C
        rhs = -4 * e.a**2 * e.b**2
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_conic_to_ellipse_unit_circle_any_scale():
    e = conic_to_ellipse(np.diag([1.0, 1.0, -1.0]))
    assert (e.a, e.b, e.xc, e.yc, e.psi) == (1.0, 1.0, 0.0, 0.0, 0.0)
    e2 = conic_to_ellipse(np.diag([-3.0, -3.0, 3.0]))
    assert (e2.a, e2.b) == (1.0, 1.0)


def test_round_trip_property():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        e = random_ellipse(rng)
        back = conic_to_ellipse(ellipse_to_conic(e))
        assert back.a == pytest.approx(e.a, rel=1e-10)
        assert back.b == pytest.approx(e.b, rel=1e-10)
        assert back.xc == pytest.approx(e.xc, rel=1e-10, abs=1e-10)
        assert back.yc == pytest.approx(e.yc, rel=1e-10, abs=1e-10)
        if e.a / e.b > 1.0 + 1e-6:
            dpsi = (back.psi - e.psi) % np.pi
            assert min(dpsi, np.pi - dpsi) < 1e-9


@settings(deadline=None, max_examples=300)
@given(
    b=st.floats(1.0, 500.0),
    ratio=st.floats(0.2, 1.0),
    xc=st.floats(-3000.0, 3000.0),
    yc=st.floats(-3000.0, 3000.0),
    psi=st.floats(0.0, np.pi, exclude_max=True),
)
def test_round_trip_hypothesis(b, ratio, xc, yc, psi):
    # Pixel-frame rims: semi-minor axis of 1 px or more, centres up to 3000 px
    # out.  The conic's constant term grows with centre distance squared over
    # b squared, so far smaller rims lose digits in the conic itself.
    e = EllipseParams(b / ratio, b, xc, yc, psi)
    back = conic_to_ellipse(ellipse_to_conic(e))
    assert back.a == pytest.approx(e.a, rel=1e-6)
    assert back.b == pytest.approx(e.b, rel=1e-6)
    assert back.xc == pytest.approx(e.xc, rel=1e-9, abs=1e-6)
    assert back.yc == pytest.approx(e.yc, rel=1e-9, abs=1e-6)
    if ratio < 0.99:
        dpsi = (back.psi - e.psi) % np.pi
        assert min(dpsi, np.pi - dpsi) < 1e-6
    # The recovered ellipse gives back the same conic at the same scale.
    c, c_back = ellipse_to_conic(e), ellipse_to_conic(back)
    assert np.allclose(c_back, c, rtol=0.0, atol=1e-6 * np.abs(c).max())


def test_round_trip_scale_ambiguity():
    e = EllipseParams(3, 2, 5, -1, 0.7)
    back = conic_to_ellipse(7.0 * ellipse_to_conic(e))
    assert back.a == pytest.approx(3.0, rel=1e-12)
    assert back.psi == pytest.approx(0.7, rel=1e-12)


def test_conic_to_ellipse_rejects_non_ellipse():
    with pytest.raises(NotAnEllipseError):
        conic_to_ellipse(np.diag([1.0, -1.0, 1.0]))  # hyperbola
    with pytest.raises(NotAnEllipseError):
        conic_to_ellipse(np.diag([1.0, 1.0, 1.0]))  # imaginary
    assert not is_proper_ellipse(np.diag([1.0, 1.0, 0.0]))  # point


def test_adjugate_identity_and_diag():
    assert np.allclose(adjugate(np.eye(3)), np.eye(3))
    assert np.allclose(adjugate(np.diag([1.0, 2.0, 3.0])), np.diag([6.0, 3.0, 2.0]))


def test_adjugate_matches_inverse():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = rng.normal(size=(3, 3))
        m = m + m.T
        expect = np.linalg.det(m) * np.linalg.inv(m)
        assert np.allclose(adjugate(m), expect, rtol=1e-10, atol=1e-12)


def test_adjugate_involution():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = rng.normal(size=(3, 3))
        lhs = adjugate(adjugate(m))
        rhs = np.linalg.det(m) * m
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_adjugate_of_singular():
    g = np.array([1.0, 1.0, -2.0])
    h = np.array([2.0, -1.0, 0.0])
    b = np.outer(g, h) + np.outer(h, g)  # rank 2
    adj = adjugate(b)
    assert np.allclose(b @ adj, np.zeros((3, 3)), atol=1e-12)


def test_normalize_unit_det():
    out = normalize_unit_det(np.diag([1.0, 1.0, -1.0]))
    assert np.allclose(out, np.diag([-1.0, -1.0, 1.0]))
    out2 = normalize_unit_det(np.diag([2.0, 2.0, -2.0]))
    assert np.allclose(out2, np.diag([-1.0, -1.0, 1.0]))
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = ellipse_to_conic(random_ellipse(rng))
        assert np.linalg.det(normalize_unit_det(c)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(SingularConicError):
        normalize_unit_det(np.diag([1.0, 1.0, 0.0]))


def test_pencil_eigenvalues_identical_circles():
    c = ellipse_to_conic(EllipseParams(1, 1))
    lams = degenerate_pencil_eigenvalues(c, c)
    assert np.allclose(lams, -1.0)


def test_pencil_eigenvalues_make_pencil_singular():
    ci = ellipse_to_conic(EllipseParams(1, 1))
    cj = ellipse_to_conic(EllipseParams(1, 1, 3, 0))
    lams = degenerate_pencil_eigenvalues(ci, cj)
    scale = np.linalg.norm(ci) * np.linalg.norm(cj) ** 2
    for lam in lams:
        assert abs(np.linalg.det(lam * ci + cj)) <= 1e-10 * scale


def test_pencil_requires_full_rank_first():
    with pytest.raises(SingularConicError):
        degenerate_pencil_eigenvalues(np.diag([1.0, 1.0, 0.0]), np.eye(3))


def test_split_known_line_pairs():
    g = np.array([1.0, 0.0, 0.0])
    h = np.array([0.0, 1.0, 0.0])
    b = np.outer(g, h) + np.outer(h, g)
    g2, h2 = split_degenerate_conic(b)
    got = {tuple(np.round(v / np.abs(v).max(), 9)) for v in (g2, h2)}
    assert got == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)}


def test_split_reconstructs_product():
    rng = np.random.default_rng(6)
    for _ in range(500):
        g = rng.normal(size=3)
        h = rng.normal(size=3)
        b = np.outer(g, h) + np.outer(h, g)
        g2, h2 = split_degenerate_conic(b)
        recon = np.outer(g2, h2) + np.outer(h2, g2)
        s = np.sum(recon * b) / np.sum(recon * recon)
        assert np.linalg.norm(b - s * recon) <= 1e-8 * np.linalg.norm(b)


def test_split_lines_pass_through_real_intersections():
    # Degenerate member of the pencil of x^2+2y^2-1 and 2x^2+y^2-1; the four
    # real intersection points are (+-1/sqrt(3), +-1/sqrt(3)).
    ci = np.diag([1.0, 2.0, -1.0])
    cj = np.diag([2.0, 1.0, -1.0])
    lams = degenerate_pencil_eigenvalues(ci, cj)
    pts = [
        np.array([sx / np.sqrt(3), sy / np.sqrt(3), 1.0])
        for sx in (-1, 1)
        for sy in (-1, 1)
    ]
    found = False
    for lam in lams:
        if abs(lam.imag) > 1e-9:
            continue
        b = lam.real * ci + cj
        try:
            g, h = split_degenerate_conic(b)
        except WrongEigenvalueBranchError:
            continue
        hits = sum(
            1 for p in pts if min(abs(g @ p), abs(h @ p)) < 1e-9
        )
        if hits == 4:
            found = True
    assert found


def test_line_between_unit_circles():
    ci = ellipse_to_conic(EllipseParams(1, 1, 0, 0))
    cj = ellipse_to_conic(EllipseParams(1, 1, 4, 0))
    line = pencil_separating_line(ci, cj)
    line = line / line[0]
    assert np.allclose(line, [1.0, 0.0, -2.0], atol=1e-9)


def test_line_selection_rejects_non_separating():
    ci = ellipse_to_conic(EllipseParams(1, 1, 0, 0))
    cj = ellipse_to_conic(EllipseParams(1, 1, 4, 0))
    # A line through both centers separates neither.
    bad = np.array([0.0, 1.0, 0.0])
    also_bad = np.array([0.0, 1.0, -5.0])
    with pytest.raises(AmbiguousSeparationError):
        line_between_conics(bad, also_bad, ci, cj)


def _random_disjoint_pair(rng):
    while True:
        e1 = random_ellipse(rng, span=12.0)
        e2 = random_ellipse(rng, span=12.0)
        dc = np.hypot(e1.xc - e2.xc, e1.yc - e2.yc)
        if dc > (e1.a + e2.a) * 1.15:
            return ellipse_to_conic(e1), ellipse_to_conic(e2)


def test_separating_line_monte_carlo():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        ci, cj = _random_disjoint_pair(rng)
        line = pencil_separating_line(ci, cj)
        pi = np.append(conic_center(ci), 1.0)
        pj = np.append(conic_center(cj), 1.0)
        assert (line @ pi) * (line @ pj) < 0.0


def test_exactly_one_real_branch_for_disjoint_pairs():
    rng = np.random.default_rng(8)
    for _ in range(300):
        ci, cj = _random_disjoint_pair(rng)
        lams = degenerate_pencil_eigenvalues(ci, cj)
        real_branches = 0
        for lam in lams:
            if abs(lam.imag) > 1e-8 * (1 + abs(lam)):
                continue
            b = lam.real * ci + cj
            adj = adjugate(b)
            diag = np.diagonal(adj)
            if diag.max() <= 1e-12 * np.abs(adj).max() and diag.min() < 0:
                real_branches += 1
        assert real_branches == 1


def test_separating_line_stack_matches_single_calls():
    # A stack of pairs gives each single call's line, and NaN where it raises.
    rng = np.random.default_rng(9)
    pairs = [_random_disjoint_pair(rng) for _ in range(30)]
    ci = ellipse_to_conic(EllipseParams(2, 1.5, 0, 0))
    pairs += [
        (ci, ellipse_to_conic(EllipseParams(2, 1.5, 0, 0, np.pi / 2))),  # crossing
        (np.diag([1.0, 1.0, 0.0]), ci),  # singular first conic
        (ci, np.full((3, 3), np.nan)),
    ]
    stacked = pencil_separating_line(*np.array(pairs).swapaxes(0, 1))
    raised = set()
    for line, pair in zip(stacked, pairs):
        try:
            single = pencil_separating_line(*pair)
        except (AmbiguousSeparationError, WrongEigenvalueBranchError, SingularConicError) as exc:
            raised.add(type(exc))
            assert np.isnan(line).all()
            continue
        assert np.array_equal(line, single)
    assert raised == {AmbiguousSeparationError, SingularConicError}
