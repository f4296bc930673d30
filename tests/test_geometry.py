"""Projection, back-projection, epipolar geometry, and triangulation."""

import numpy as np
import pytest
import scipy.optimize

from mvtrack3d import geometry
from mvtrack3d.errors import (
    DegenerateBaseline,
    DegenerateGeometry,
    DepthNonPositive,
    InsufficientObservations,
    SingularProjection,
    ValidationError,
)
from mvtrack3d.geometry import CameraCalibration, CameraRig, Line2D, Ray3D

from helpers import (
    homogeneous_project,
    look_at_camera,
    points_near_origin,
    random_ring_rig,
)


def identity_camera():
    return CameraCalibration(0, np.eye(3), np.eye(3), np.zeros(3), 2, 2, 25.0)


# -- projection --------------------------------------------------------


def test_project_identity_camera():
    cam = identity_camera()
    assert np.array_equal(geometry.project([0.0, 0.0, 1.0], cam), [0.0, 0.0])
    assert np.array_equal(geometry.project([1.0, 1.0, 2.0], cam), [0.5, 0.5])


def test_project_rejects_points_behind_camera():
    cam = identity_camera()
    for bad in ([0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1e-12]):
        with pytest.raises(DepthNonPositive):
            geometry.project(bad, cam)


def test_project_matches_homogeneous_matrix_form(rng):
    for _ in range(20):
        cam = random_ring_rig(rng, n_cams=1)[0]
        pts = points_near_origin(rng, 10)
        expected, depth = homogeneous_project(cam, pts)
        assert np.all(depth > 0)
        got = np.stack([geometry.project(p, cam) for p in pts])
        assert np.max(np.abs(got - expected)) < 1e-9


# -- back-projection ---------------------------------------------------


def test_back_project_identity_camera():
    cam = identity_camera()
    ray = geometry.back_project_ray([0.0, 0.0], cam)
    assert np.array_equal(ray.origin, np.zeros(3))
    assert np.allclose(ray.direction, [0.0, 0.0, 1.0], atol=1e-15)
    ray = geometry.back_project_ray([2.0, 2.0], cam)
    assert np.allclose(ray.direction, np.array([2.0, 2.0, 1.0]) / 3.0,
                       atol=1e-12)


def test_back_project_directions_are_unit(rng):
    cam = random_ring_rig(rng, n_cams=1)[0]
    for _ in range(20):
        uv = rng.uniform(0, [cam.width, cam.height])
        ray = geometry.back_project_ray(uv, cam)
        assert abs(np.linalg.norm(ray.direction) - 1.0) < 1e-12


def test_project_back_project_roundtrip(rng):
    worst = 0.0
    for _ in range(100):
        cams = random_ring_rig(rng, n_cams=3)
        for p in points_near_origin(rng, 3):
            for cam in cams:
                uv = geometry.project(p, cam)
                ray = geometry.back_project_ray(uv, cam)
                worst = max(worst, geometry.point_ray_distance_3d(p, ray))
    assert worst < 1e-8


def test_back_project_singular_projection():
    cam = CameraCalibration(0, np.diag([1e-13, 1e-13, 1.0]), np.eye(3),
                            np.zeros(3), 2, 2, 25.0)
    with pytest.raises(SingularProjection):
        geometry.back_project_ray([0.5, 0.5], cam)


def test_ray_point_at():
    ray = Ray3D([1.0, 2.0, 3.0], [0.0, 0.0, 2.0])
    assert np.array_equal(ray.point_at(4.0), [1.0, 2.0, 7.0])
    with pytest.raises(ValidationError):
        Ray3D([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


# -- distances ---------------------------------------------------------


def test_point_line_distance_vertical_axis():
    line = Line2D(1.0, 0.0, 0.0)  # u = 0
    assert geometry.point_line_distance_2d([3.0, 7.0], line) == 3.0
    assert geometry.point_line_distance_2d([0.0, -5.0], line) == 0.0


def test_point_line_distance_matches_projection_formula(rng):
    for _ in range(200):
        a, b = rng.normal(size=2)
        if abs(a) + abs(b) < 1e-6:
            continue
        c = rng.normal()
        line = Line2D(a, b, c)
        p = rng.normal(scale=100.0, size=2)
        # independent derivation: distance to the closest point of the
        # parametrized line p0 + t*(-b, a)
        norm = np.hypot(line.a, line.b)
        p0 = np.array([-line.a * line.c, -line.b * line.c]) / norm**2
        d = np.array([-line.b, line.a])
        t = (p - p0) @ d
        closest = p0 + t * d
        assert geometry.point_line_distance_2d(p, line) == pytest.approx(
            np.linalg.norm(p - closest), abs=1e-9)


def test_point_ray_distance_z_axis():
    ray = Ray3D(np.zeros(3), [0.0, 0.0, 1.0])
    assert geometry.point_ray_distance_3d([3.0, 4.0, 10.0], ray) == 5.0
    assert geometry.point_ray_distance_3d([0.0, 0.0, 123.0], ray) == 0.0


def test_point_ray_distance_matches_orthogonal_rejection(rng):
    for _ in range(200):
        origin = rng.normal(size=3)
        ray = Ray3D(origin, rng.normal(size=3))
        p = rng.normal(scale=10.0, size=3)
        w = p - ray.origin
        rej = w - (w @ ray.direction) * ray.direction
        assert geometry.point_ray_distance_3d(p, ray) == pytest.approx(
            np.linalg.norm(rej), abs=1e-9)


# -- epipolar geometry -------------------------------------------------


def test_fundamental_matrix_annihilates_correspondences(rng):
    for _ in range(50):
        cams = random_ring_rig(rng, n_cams=2)
        f = geometry.fundamental_matrix(cams[0], cams[1])
        f = f / np.linalg.norm(f)
        for p in points_near_origin(rng, 5):
            xa = np.append(geometry.project(p, cams[0]), 1.0)
            xb = np.append(geometry.project(p, cams[1]), 1.0)
            assert abs(xb @ f @ xa) < 1e-6


def test_fundamental_matrix_rank_two(rng):
    cams = random_ring_rig(rng, n_cams=2)
    f = geometry.fundamental_matrix(cams[0], cams[1])
    s = np.linalg.svd(f, compute_uv=False)
    assert s[2] / s[0] < 1e-9


def test_fundamental_matrix_degenerate_baseline():
    cam_a = look_at_camera(0, [5.0, 0.0, 2.0], [0.0, 0.0, 1.0])
    cam_b = look_at_camera(1, [5.0, 0.0, 2.0], [0.0, 1.0, 1.0])
    with pytest.raises(DegenerateBaseline):
        geometry.fundamental_matrix(cam_a, cam_b)


def test_epipolar_line_contains_correspondence_and_epipole(rng):
    worst = 0.0
    for _ in range(50):
        cams = random_ring_rig(rng, n_cams=2)
        epipole = geometry.project(cams[0].o, cams[1])
        for p in points_near_origin(rng, 5):
            uv_a = geometry.project(p, cams[0])
            uv_b = geometry.project(p, cams[1])
            line = geometry.epipolar_line(uv_a, cams[0], cams[1])
            worst = max(worst, geometry.point_line_distance_2d(uv_b, line))
            assert geometry.point_line_distance_2d(epipole, line) < 1e-5
    assert worst < 1e-7


def test_epipolar_line_is_normalized(rng):
    cams = random_ring_rig(rng, n_cams=2)
    uv = geometry.project(points_near_origin(rng, 1)[0], cams[0])
    line = geometry.epipolar_line(uv, cams[0], cams[1])
    assert np.hypot(line.a, line.b) == pytest.approx(1.0, abs=1e-12)


# -- triangulation -----------------------------------------------------


def test_triangulate_exact_observations(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        cams = random_ring_rig(rng, n_cams=n)
        for p in points_near_origin(rng, 3):
            uv = np.stack([geometry.project(p, c) for c in cams])
            worst = max(worst, float(np.linalg.norm(
                geometry.triangulate(uv, cams) - p)))
    assert worst < 1e-9


def test_triangulate_weight_scale_invariance(rng):
    cams = random_ring_rig(rng, n_cams=4)
    p = points_near_origin(rng, 1)[0]
    uv = np.stack([geometry.project(p, c) for c in cams]) + rng.normal(
        0.0, 2.0, size=(4, 2))
    w = rng.uniform(0.2, 2.0, size=4)
    a = geometry.triangulate(uv, cams, w)
    b = geometry.triangulate(uv, cams, w * 37.5)
    assert np.linalg.norm(a - b) < 1e-9


def test_triangulate_downweights_bad_view(rng):
    cams = random_ring_rig(rng, n_cams=4)
    p = points_near_origin(rng, 1)[0]
    uv = np.stack([geometry.project(p, c) for c in cams])
    uv[0] += 40.0  # one corrupted view
    heavy = geometry.triangulate(uv, cams, [1.0, 1.0, 1.0, 1.0])
    light = geometry.triangulate(uv, cams, [1e-4, 1.0, 1.0, 1.0])
    assert np.linalg.norm(light - p) < np.linalg.norm(heavy - p)


def test_triangulate_input_validation(rng):
    cams = random_ring_rig(rng, n_cams=2)
    p = points_near_origin(rng, 1)[0]
    uv = np.stack([geometry.project(p, c) for c in cams])
    with pytest.raises(InsufficientObservations):
        geometry.triangulate(uv[:1], cams[:1])
    with pytest.raises(ValidationError):
        geometry.triangulate(uv, cams[:1])
    with pytest.raises(ValidationError):
        geometry.triangulate(uv, cams, [1.0, -1.0])
    with pytest.raises(ValidationError):
        geometry.triangulate(uv, cams, [1.0, np.inf])


def test_triangulate_degenerate_geometry(rng):
    cam = random_ring_rig(rng, n_cams=1)[0]
    twin = CameraCalibration(1, cam.K, cam.R, cam.o, cam.width, cam.height,
                             cam.fps)
    p = points_near_origin(rng, 1)[0]
    uv = geometry.project(p, cam)
    with pytest.raises(DegenerateGeometry):
        geometry.triangulate([uv, uv], [cam, twin])


def test_triangulate_noisy_error_near_nonlinear_refinement(rng):
    """Linear triangulation should stay within 20% of the reprojection
    error minimizer's accuracy under 1 px observation noise."""
    cams = random_ring_rig(rng, n_cams=5)
    mats = [c.projection_matrix for c in cams]

    def residual(x, noisy):
        hom = np.stack([m @ np.append(x, 1.0) for m in mats])
        return (hom[:, :2] / hom[:, 2:3] - noisy).ravel()

    err_lin = []
    err_ref = []
    for p in points_near_origin(rng, 300):
        noisy = np.stack([geometry.project(p, c) for c in cams])
        noisy = noisy + rng.normal(0.0, 1.0, size=noisy.shape)
        lin = geometry.triangulate(noisy, cams)
        fit = scipy.optimize.least_squares(residual, lin, args=(noisy,))
        err_lin.append(np.linalg.norm(lin - p) ** 2)
        err_ref.append(np.linalg.norm(fit.x - p) ** 2)
    rmse_lin = np.sqrt(np.mean(err_lin))
    rmse_ref = np.sqrt(np.mean(err_ref))
    assert rmse_lin <= 1.2 * rmse_ref


# -- calibration validation -------------------------------------------


def test_camera_validation_rejects_bad_rotations():
    k = np.diag([700.0, 700.0, 1.0])
    k[0, 2], k[1, 2] = 400.0, 300.0
    reflection = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValidationError, match="determinant"):
        CameraCalibration(0, k, reflection, np.zeros(3), 800, 600, 25.0)
    skewed = np.eye(3)
    skewed[0, 1] = 0.1
    with pytest.raises(ValidationError, match="orthonormal"):
        CameraCalibration(0, k, skewed, np.zeros(3), 800, 600, 25.0)


def test_camera_validation_rejects_bad_intrinsics_and_metadata():
    r = np.eye(3)
    with pytest.raises(ValidationError, match="focal"):
        CameraCalibration(0, np.diag([0.0, 700.0, 1.0]), r, np.zeros(3),
                          800, 600, 25.0)
    lower = np.diag([700.0, 700.0, 1.0])
    lower[2, 0] = 5.0
    with pytest.raises(ValidationError):
        CameraCalibration(0, lower, r, np.zeros(3), 800, 600, 25.0)
    k = np.diag([700.0, 700.0, 1.0])
    with pytest.raises(ValidationError):
        CameraCalibration(0, k, r, [np.nan, 0.0, 0.0], 800, 600, 25.0)
    with pytest.raises(ValidationError):
        CameraCalibration(0, k, r, np.zeros(3), 0, 600, 25.0)
    with pytest.raises(ValidationError):
        CameraCalibration(0, k, r, np.zeros(3), 800, 600, 0.0)


def test_camera_rig_tables_and_validation(rng):
    cams = random_ring_rig(rng, n_cams=3)
    rig = CameraRig(cams)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            expected = geometry.fundamental_matrix(cams[i], cams[j])
            assert np.max(np.abs(rig.f_table[i, j] - expected)) < 1e-12
        assert rig.cameras[i] is cams[i]
        assert np.array_equal(rig.origins[i], cams[i].o)
    with pytest.raises(ValidationError, match="duplicate"):
        CameraRig([cams[0], cams[0]])
    with pytest.raises(ValidationError):
        CameraRig([])
    slow = CameraCalibration(9, cams[0].K, cams[0].R, cams[0].o + 1.0,
                             cams[0].width, cams[0].height, 30.0)
    with pytest.raises(ValidationError):
        CameraRig([cams[0], slow])
