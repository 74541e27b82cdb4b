"""Tests for similarity-transform parameters, matrices, and fitting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from synthstab.affine import (
    AffineParams,
    apply_transform,
    compose,
    fit_similarity,
    invert,
    matrix_to_params,
    params_to_matrix,
    wrap_angle,
)
from synthstab.errors import DegenerateConfigurationError, NonSimilarityError


def random_params(rng: np.random.Generator) -> AffineParams:
    return AffineParams(
        tx=float(rng.uniform(-50.0, 50.0)),
        ty=float(rng.uniform(-50.0, 50.0)),
        theta=float(rng.uniform(-math.pi * 0.999, math.pi)),
        s=float(rng.uniform(0.2, 5.0)),
    )


# ---------------------------------------------------------------------------
# wrap_angle
# ---------------------------------------------------------------------------


def test_wrap_angle_identity_in_range():
    for theta in (-3.0, -1.0, 0.0, 1.0, 3.0, math.pi):
        assert wrap_angle(theta) == pytest.approx(theta, abs=1e-15)


def test_wrap_angle_periodicity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta = float(rng.uniform(-20.0, 20.0))
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert math.isclose(
            math.cos(w), math.cos(theta), abs_tol=1e-12
        ) and math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)


def test_wrap_angle_negative_pi_maps_to_positive():
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# AffineParams validation
# ---------------------------------------------------------------------------


def test_params_reject_nonpositive_scale():
    with pytest.raises(ValueError):
        AffineParams(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        AffineParams(0.0, 0.0, 0.0, -1.0)


def test_params_reject_out_of_range_theta():
    with pytest.raises(ValueError):
        AffineParams(0.0, 0.0, -math.pi, 1.0)
    with pytest.raises(ValueError):
        AffineParams(0.0, 0.0, 4.0, 1.0)
    AffineParams(0.0, 0.0, math.pi, 1.0)


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        AffineParams(math.nan, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        AffineParams(0.0, math.inf, 0.0, 1.0)


def test_identity_params():
    ident = AffineParams.identity()
    assert (ident.tx, ident.ty, ident.theta, ident.s) == (0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Matrix conversion
# ---------------------------------------------------------------------------


def test_params_to_matrix_structure():
    p = AffineParams(3.0, -4.0, 0.5, 2.0)
    m = params_to_matrix(p)
    c = 2.0 * math.cos(0.5)
    s = 2.0 * math.sin(0.5)
    expected = np.array([[c, -s, 3.0], [s, c, -4.0]])
    np.testing.assert_allclose(m, expected, rtol=0, atol=1e-15)


def test_matrix_params_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = random_params(rng)
        q = matrix_to_params(params_to_matrix(p))
        assert q.tx == pytest.approx(p.tx, abs=1e-12)
        assert q.ty == pytest.approx(p.ty, abs=1e-12)
        assert q.theta == pytest.approx(p.theta, abs=1e-12)
        assert q.s == pytest.approx(p.s, rel=1e-12)


def test_matrix_to_params_rejects_non_similarity():
    anisotropic = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(NonSimilarityError):
        matrix_to_params(anisotropic)
    reflection = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    with pytest.raises(NonSimilarityError):
        matrix_to_params(reflection)
    with pytest.raises(NonSimilarityError):
        matrix_to_params(np.eye(3))
    with pytest.raises(NonSimilarityError):
        matrix_to_params(np.zeros((2, 3)))


def test_matrix_to_params_accepts_near_similarity():
    m = params_to_matrix(AffineParams(1.0, 2.0, 0.3, 1.5))
    m[0, 0] += 1e-9
    matrix_to_params(m)


# ---------------------------------------------------------------------------
# apply / compose / invert
# ---------------------------------------------------------------------------


def test_apply_transform_hand_case():
    # 90 degree rotation about the origin plus a shift.
    m = params_to_matrix(AffineParams(10.0, 0.0, math.pi / 2.0, 1.0))
    out = apply_transform(m, np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(out, [[10.0, 1.0], [8.0, 0.0]], atol=1e-12)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-10.0, 10.0, size=(20, 2))
    for _ in range(100):
        first = params_to_matrix(random_params(rng))
        second = params_to_matrix(random_params(rng))
        combined = compose(second, first)
        expected = apply_transform(second, apply_transform(first, pts))
        np.testing.assert_allclose(apply_transform(combined, pts), expected, atol=1e-9)


def test_compose_of_similarities_is_similarity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = random_params(rng)
        q = random_params(rng)
        combined = matrix_to_params(compose(params_to_matrix(q), params_to_matrix(p)))
        assert combined.s == pytest.approx(p.s * q.s, rel=1e-12)
        assert combined.theta == pytest.approx(wrap_angle(p.theta + q.theta), abs=1e-9)


def test_invert_round_trip():
    rng = np.random.default_rng(19)
    identity = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for _ in range(100):
        m = params_to_matrix(random_params(rng))
        np.testing.assert_allclose(compose(invert(m), m), identity, atol=1e-9)
        np.testing.assert_allclose(compose(m, invert(m)), identity, atol=1e-9)


# ---------------------------------------------------------------------------
# fit_similarity
# ---------------------------------------------------------------------------


def exact_correspondences(
    p: AffineParams, rng: np.random.Generator, n: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    src = rng.uniform(-100.0, 100.0, size=(n, 2))
    return src, apply_transform(params_to_matrix(p), src)


def test_fit_similarity_exact_recovery():
    rng = np.random.default_rng(23)
    for _ in range(500):
        p = random_params(rng)
        q = fit_similarity(*exact_correspondences(p, rng))
        assert abs(q.tx - p.tx) < 1e-9
        assert abs(q.ty - p.ty) < 1e-9
        assert abs(q.theta - p.theta) < 1e-9
        assert abs(q.s - p.s) < 1e-9


def test_fit_similarity_two_points_suffice():
    p = AffineParams(5.0, -3.0, 0.7, 1.3)
    m = params_to_matrix(p)
    src = np.array([[0.0, 0.0], [10.0, 4.0]])
    dst = apply_transform(m, src)
    q = fit_similarity(src, dst)
    assert q.tx == pytest.approx(p.tx, abs=1e-9)
    assert q.theta == pytest.approx(p.theta, abs=1e-9)


def test_fit_similarity_is_least_squares():
    # With noisy targets the fit must beat the true generating transform
    # in summed squared residual (it is the LS optimum).
    rng = np.random.default_rng(29)
    p = AffineParams(2.0, 1.0, 0.2, 1.1)
    m = params_to_matrix(p)
    src = rng.uniform(-50.0, 50.0, size=(40, 2))
    dst = apply_transform(m, src) + rng.normal(0.0, 0.5, size=(40, 2))
    fit = fit_similarity(src, dst)
    fit_m = params_to_matrix(fit)
    res_fit = np.sum((apply_transform(fit_m, src) - dst) ** 2)
    res_true = np.sum((apply_transform(m, src) - dst) ** 2)
    assert res_fit <= res_true + 1e-12


def test_fit_similarity_rejects_degenerate_input():
    with pytest.raises(DegenerateConfigurationError):
        fit_similarity(np.empty((0, 2)), np.empty((0, 2)))
    with pytest.raises(DegenerateConfigurationError):
        fit_similarity(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    with pytest.raises(DegenerateConfigurationError):
        fit_similarity(np.array([[5.0, 5.0], [5.0, 5.0]]), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_fit_similarity_rejects_bad_shapes():
    src = np.array([[0.0, 0.0], [10.0, 4.0], [3.0, -2.0]])
    with pytest.raises(DegenerateConfigurationError):
        fit_similarity(src, src[:2])
    with pytest.raises(DegenerateConfigurationError):
        fit_similarity(np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(DegenerateConfigurationError):
        fit_similarity(src.ravel(), src.ravel())


def test_fit_similarity_theta_boundary():
    # A half-turn lands exactly on the +pi boundary of the range.
    p = AffineParams(0.0, 0.0, math.pi, 1.0)
    rng = np.random.default_rng(31)
    q = fit_similarity(*exact_correspondences(p, rng))
    assert q.theta == pytest.approx(math.pi)
