"""Projection, back-projection, epipolar geometry, and triangulation.

Most tests call the kernels directly. The roundtrip and triangulation
tests go through the per-point forms in helpers (project,
back_project_ray, point_ray_distance_3d, triangulate), which call the
same kernels one point at a time."""

import numpy as np
import pytest
import scipy.optimize

from mvtrack3d import geometry, kernels
from mvtrack3d.errors import (
    DegenerateBaseline,
    SingularProjection,
    ValidationError,
)
from mvtrack3d.geometry import CameraCalibration, CameraRig

from helpers import (
    Line2D,
    Ray3D,
    back_project_ray,
    epipolar_line,
    homogeneous_project,
    look_at_camera,
    point_line_distance_2d,
    point_ray_distance_3d,
    points_near_origin,
    project,
    random_ring_rig,
    triangulate,
)


def identity_camera():
    return CameraCalibration(0, np.eye(3), np.eye(3), np.zeros(3), 2, 2, 25.0)


# -- projection --------------------------------------------------------


def project_points(points, cam):
    return kernels.project_points(np.asarray(points, dtype=np.float64),
                                  cam.projection_matrix)


def test_project_identity_camera():
    uv, depth = project_points([[0.0, 0.0, 1.0], [1.0, 1.0, 2.0]],
                               identity_camera())
    assert np.array_equal(uv, [[0.0, 0.0], [0.5, 0.5]])
    assert np.array_equal(depth, [1.0, 2.0])


def test_project_rejects_points_behind_camera():
    # a point at or behind the camera plane gets NaN pixels and depth <= 0
    uv, depth = project_points([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0],
                                [1.0, -2.0, -1e-12], [0.0, 0.0, 1.0]],
                               identity_camera())
    assert np.isnan(uv[:3]).all() and np.all(depth[:3] <= 0.0)
    assert np.array_equal(uv[3], [0.0, 0.0]) and depth[3] == 1.0


def test_project_matches_homogeneous_matrix_form(rng):
    for _ in range(20):
        cam = random_ring_rig(rng, n_cams=1)[0]
        pts = points_near_origin(rng, 10)
        expected, depth = homogeneous_project(cam, pts)
        assert np.all(depth > 0)
        got, got_depth = project_points(pts, cam)
        assert np.max(np.abs(got - expected)) < 1e-9
        assert np.max(np.abs(got_depth - depth)) < 1e-12


# -- back-projection ---------------------------------------------------


def test_back_project_identity_camera():
    krinv = identity_camera().krinv
    direction = kernels.back_project_dir([0.0, 2.0], [0.0, 2.0], krinv)
    assert np.allclose(direction[0], [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(direction[1], np.array([2.0, 2.0, 1.0]) / 3.0,
                       atol=1e-12)


def test_back_project_directions_are_unit(rng):
    cam = random_ring_rig(rng, n_cams=1)[0]
    uv = rng.uniform(0, [cam.width, cam.height], size=(20, 2))
    direction = kernels.back_project_dir(uv[:, 0], uv[:, 1], cam.krinv)
    assert np.max(np.abs(np.linalg.norm(direction, axis=1) - 1.0)) < 1e-12


def test_project_back_project_roundtrip(rng):
    # one point and one camera at a time; criterion 1 runs the kernels
    # on whole batches
    worst = 0.0
    for _ in range(100):
        cams = random_ring_rig(rng, n_cams=3)
        for p in points_near_origin(rng, 3):
            for cam in cams:
                uv = project(p, cam)
                ray = back_project_ray(uv, cam)
                worst = max(worst, point_ray_distance_3d(p, ray))
    assert worst < 1e-8


def test_back_project_singular_projection():
    cam = CameraCalibration(0, np.diag([1e-13, 1e-13, 1.0]), np.eye(3),
                            np.zeros(3), 2, 2, 25.0)
    with pytest.raises(SingularProjection):
        cam.krinv


def test_ray_point_at():
    ray = Ray3D([1.0, 2.0, 3.0], [0.0, 0.0, 2.0])
    assert np.array_equal(ray.point_at(4.0), [1.0, 2.0, 7.0])
    with pytest.raises(ValueError):
        Ray3D([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])


# -- distances ---------------------------------------------------------


def test_point_line_distance_vertical_axis():
    line = Line2D(1.0, 0.0, 0.0)  # u = 0
    assert point_line_distance_2d([3.0, 7.0], line) == 3.0
    assert point_line_distance_2d([0.0, -5.0], line) == 0.0


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
        assert point_line_distance_2d(p, line) == pytest.approx(
            np.linalg.norm(p - closest), abs=1e-9)


def test_point_ray_distance_z_axis():
    d = kernels.point_ray_distance(np.array([[3.0, 4.0, 10.0],
                                             [0.0, 0.0, 123.0]]),
                                   np.zeros(3), np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(d, [5.0, 0.0])


def test_point_ray_distance_matches_orthogonal_rejection(rng):
    origin = rng.normal(size=(200, 3))
    direction = rng.normal(size=(200, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    p = rng.normal(scale=10.0, size=(200, 3))
    got = kernels.point_ray_distance(p, origin, direction)
    for k in range(200):
        w = p[k] - origin[k]
        rej = w - (w @ direction[k]) * direction[k]
        assert got[k] == pytest.approx(np.linalg.norm(rej), abs=1e-9)


# -- epipolar geometry -------------------------------------------------


def test_fundamental_matrix_annihilates_correspondences(rng):
    for _ in range(50):
        cams = random_ring_rig(rng, n_cams=2)
        f = geometry.fundamental_matrix(cams[0], cams[1])
        f = f / np.linalg.norm(f)
        for p in points_near_origin(rng, 5):
            xa = np.append(project(p, cams[0]), 1.0)
            xb = np.append(project(p, cams[1]), 1.0)
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
        epipole = project(cams[0].o, cams[1])
        for p in points_near_origin(rng, 5):
            uv_a = project(p, cams[0])
            uv_b = project(p, cams[1])
            line = epipolar_line(uv_a, cams[0], cams[1])
            worst = max(worst, point_line_distance_2d(uv_b, line))
            assert point_line_distance_2d(epipole, line) < 1e-5
    assert worst < 1e-7


def test_epipolar_line_is_normalized(rng):
    cams = random_ring_rig(rng, n_cams=2)
    uv = project(points_near_origin(rng, 1)[0], cams[0])
    line = epipolar_line(uv, cams[0], cams[1])
    assert np.hypot(line.a, line.b) == pytest.approx(1.0, abs=1e-12)


# -- triangulation -----------------------------------------------------


def test_triangulate_exact_observations(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        cams = random_ring_rig(rng, n_cams=n)
        for p in points_near_origin(rng, 3):
            uv = np.stack([project(p, c) for c in cams])
            worst = max(worst, float(np.linalg.norm(
                triangulate(uv, cams) - p)))
    assert worst < 1e-9


def test_triangulate_weight_scale_invariance(rng):
    cams = random_ring_rig(rng, n_cams=4)
    p = points_near_origin(rng, 1)[0]
    uv = np.stack([project(p, c) for c in cams]) + rng.normal(
        0.0, 2.0, size=(4, 2))
    w = rng.uniform(0.2, 2.0, size=4)
    a = triangulate(uv, cams, w)
    b = triangulate(uv, cams, w * 37.5)
    assert np.linalg.norm(a - b) < 1e-9


def test_triangulate_downweights_bad_view(rng):
    cams = random_ring_rig(rng, n_cams=4)
    p = points_near_origin(rng, 1)[0]
    uv = np.stack([project(p, c) for c in cams])
    uv[0] += 40.0  # one corrupted view
    heavy = triangulate(uv, cams, [1.0, 1.0, 1.0, 1.0])
    light = triangulate(uv, cams, [1e-4, 1.0, 1.0, 1.0])
    assert np.linalg.norm(light - p) < np.linalg.norm(heavy - p)


def test_triangulate_degenerate_geometry(rng):
    # two views from one center: their rays meet everywhere along the line
    cam = random_ring_rig(rng, n_cams=1)[0]
    twin = CameraCalibration(1, cam.K, cam.R, cam.o, cam.width, cam.height,
                             cam.fps)
    pmats = np.stack([c.conditioned_projection() for c in (cam, twin)])
    uv = project(points_near_origin(rng, 1)[0], cam)
    uvn = uv * [2.0 / cam.width, 2.0 / cam.height] - 1.0
    _, status = kernels.triangulate_batch(
        np.stack([uvn, uvn])[None], pmats[None], np.ones((1, 2)),
        np.ones((1, 2), np.bool_))
    assert status[0] != 0


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
        noisy = np.stack([project(p, c) for c in cams])
        noisy = noisy + rng.normal(0.0, 1.0, size=noisy.shape)
        lin = triangulate(noisy, cams)
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
        assert np.array_equal(rig.p_table[i], cams[i].projection_matrix)
    with pytest.raises(ValidationError, match="duplicate"):
        CameraRig([cams[0], cams[0]])
    with pytest.raises(ValidationError):
        CameraRig([])
    slow = CameraCalibration(9, cams[0].K, cams[0].R, cams[0].o + 1.0,
                             cams[0].width, cams[0].height, 30.0)
    with pytest.raises(ValidationError):
        CameraRig([cams[0], slow])
