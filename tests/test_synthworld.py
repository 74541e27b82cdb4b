"""Tests for the synthetic world: scenes, camera paths, projection, marks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from synthstab.affine import apply_transform, params_to_matrix
from synthstab.errors import InsufficientMarksError, InvalidSpecError
from synthstab.synthworld import (
    TEXTURE_STYLES,
    CameraPose,
    NoiseProfile,
    SceneSpec,
    SmoothPathSpec,
    build_scene,
    emit_mark_points,
    generate_camera_path,
    ground_truth_pairs,
    marks_by_frame,
    pair_correspondences,
    pose_after_delta,
    pose_delta_params,
    render_frame,
    render_video,
    screen_from_world,
    smooth_pose_at,
    world_from_screen,
)


def random_pose(rng: np.random.Generator) -> CameraPose:
    return CameraPose(
        cx=float(rng.uniform(-100.0, 100.0)),
        cy=float(rng.uniform(-100.0, 100.0)),
        theta=float(rng.uniform(-0.5, 0.5)),
        zoom=float(rng.uniform(0.7, 1.4)),
    )


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_scene_spec_validation():
    with pytest.raises(InvalidSpecError):
        SceneSpec(seed=-1)
    with pytest.raises(InvalidSpecError):
        SceneSpec(frame_width=4)
    with pytest.raises(InvalidSpecError):
        SceneSpec(canvas_size=128, frame_width=128, frame_height=128)
    with pytest.raises(InvalidSpecError):
        SceneSpec(n_layers=2, layer_depths=(1.0,))
    with pytest.raises(InvalidSpecError):
        SceneSpec(n_layers=2, layer_depths=(1.0, 0.8))
    with pytest.raises(InvalidSpecError):
        SceneSpec(layer_depths=(2.0,))
    with pytest.raises(InvalidSpecError):
        SceneSpec(texture_style="marble")


def test_noise_profile_validation():
    with pytest.raises(InvalidSpecError):
        NoiseProfile(n_sinusoids=-1)
    with pytest.raises(InvalidSpecError):
        NoiseProfile(amp_range=(3.0, 1.0))
    with pytest.raises(InvalidSpecError):
        NoiseProfile(jitter_sigma=-0.1)


# ---------------------------------------------------------------------------
# Scene construction
# ---------------------------------------------------------------------------


def test_build_scene_deterministic():
    spec = SceneSpec(seed=5, texture_style="mixed")
    a = build_scene(spec)
    b = build_scene(spec)
    np.testing.assert_array_equal(a.layers[0].color, b.layers[0].color)
    c = build_scene(SceneSpec(seed=6, texture_style="mixed"))
    assert not np.array_equal(a.layers[0].color, c.layers[0].color)


def test_every_texture_style_has_contrast():
    for style in TEXTURE_STYLES:
        scene = build_scene(SceneSpec(seed=3, texture_style=style))
        color = scene.layers[0].color
        assert color.shape == (512, 512)
        assert float(color.max() - color.min()) > 0.5
        assert 0.0 <= color.min() and color.max() <= 1.0


def test_overlay_layers_have_partial_alpha():
    spec = SceneSpec(seed=7, n_layers=2, layer_depths=(1.0, 2.5))
    scene = build_scene(spec)
    assert scene.layers[0].alpha.min() == 1.0
    overlay_alpha = scene.layers[1].alpha
    assert overlay_alpha.min() == 0.0
    assert overlay_alpha.max() > 0.0


# ---------------------------------------------------------------------------
# Camera paths
# ---------------------------------------------------------------------------


def test_smooth_pose_constant_velocity_exact():
    spec = SmoothPathSpec(start_x=10.0, start_y=-5.0, vel_x=0.7, vel_y=-0.4)
    for t in (0, 1, 17, 99):
        pose = smooth_pose_at(spec, float(t))
        assert pose.cx == pytest.approx(10.0 + 0.7 * t, abs=1e-12)
        assert pose.cy == pytest.approx(-5.0 - 0.4 * t, abs=1e-12)
        assert pose.theta == 0.0
        assert pose.zoom == 1.0


def test_still_profile_adds_no_shake():
    spec = SmoothPathSpec(start_x=3.0, vel_x=0.5, theta_rate=0.001)
    smooth, shaky = generate_camera_path(spec, NoiseProfile.still(), 50)
    for a, b in zip(smooth, shaky):
        assert b.cx == pytest.approx(a.cx, abs=1e-12)
        assert b.cy == pytest.approx(a.cy, abs=1e-12)
        assert b.theta == pytest.approx(a.theta, abs=1e-12)
        assert b.zoom == pytest.approx(a.zoom, abs=1e-12)


def test_noisy_path_deterministic_and_shaky():
    spec = SmoothPathSpec(start_x=200.0, start_y=200.0)
    noise = NoiseProfile(seed=4)
    _, shaky1 = generate_camera_path(spec, noise, 60)
    _, shaky2 = generate_camera_path(spec, noise, 60)
    assert all(a == b for a, b in zip(shaky1, shaky2))
    deviations = [abs(p.cx - 200.0) for p in shaky1]
    assert max(deviations) > 0.5


def test_path_rejects_bad_inputs():
    with pytest.raises(InvalidSpecError):
        generate_camera_path(SmoothPathSpec(), NoiseProfile.still(), 1)
    with pytest.raises(InvalidSpecError):
        generate_camera_path(
            SmoothPathSpec(zoom0=0.005), NoiseProfile.still(), 10
        )


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def test_world_screen_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(200):
        pose = random_pose(rng)
        px, py = float(rng.uniform(0, 127)), float(rng.uniform(0, 127))
        depth = float(rng.uniform(1.0, 4.0))
        wx, wy = world_from_screen(px, py, pose, 128, 128, depth)
        qx, qy = screen_from_world(wx, wy, pose, 128, 128, depth)
        assert qx == pytest.approx(px, abs=1e-9)
        assert qy == pytest.approx(py, abs=1e-9)


def test_parallax_scales_inversely_with_depth():
    # A pure camera translation moves distant-plane points less on
    # screen, proportionally to 1/depth.
    pose_a = CameraPose(0.0, 0.0, 0.0, 1.0)
    pose_b = CameraPose(10.0, 0.0, 0.0, 1.0)
    wx_near, wy_near = world_from_screen(64.0, 64.0, pose_a, 128, 128, 1.0)
    wx_far, wy_far = world_from_screen(64.0, 64.0, pose_a, 128, 128, 4.0)
    near_x, _ = screen_from_world(wx_near, wy_near, pose_b, 128, 128, 1.0)
    far_x, _ = screen_from_world(wx_far, wy_far, pose_b, 128, 128, 4.0)
    assert near_x - 64.0 == pytest.approx(-10.0, abs=1e-9)
    assert far_x - 64.0 == pytest.approx(-2.5, abs=1e-9)


def test_pose_delta_matches_projection():
    # The closed-form pair motion equals project-out, project-in for
    # arbitrary base-plane points.
    rng = np.random.default_rng(37)
    for _ in range(100):
        pose_a = random_pose(rng)
        pose_b = random_pose(rng)
        delta = pose_delta_params(pose_a, pose_b, 128, 96)
        m = params_to_matrix(delta)
        pts = rng.uniform(0.0, 96.0, size=(5, 2))
        for px, py in pts:
            wx, wy = world_from_screen(px, py, pose_a, 128, 96)
            qx, qy = screen_from_world(wx, wy, pose_b, 128, 96)
            ax, ay = apply_transform(m, np.array([[px, py]]))[0]
            assert ax == pytest.approx(qx, abs=1e-9)
            assert ay == pytest.approx(qy, abs=1e-9)


def test_pose_after_delta_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(100):
        pose_a = random_pose(rng)
        pose_b = random_pose(rng)
        delta = pose_delta_params(pose_a, pose_b, 64, 64)
        back = pose_after_delta(pose_a, delta, 64, 64)
        assert back.cx == pytest.approx(pose_b.cx, abs=1e-9)
        assert back.cy == pytest.approx(pose_b.cy, abs=1e-9)
        assert back.theta == pytest.approx(pose_b.theta, abs=1e-9)
        assert back.zoom == pytest.approx(pose_b.zoom, abs=1e-9)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_render_frame_shape_and_determinism():
    scene = build_scene(SceneSpec(seed=11, frame_width=96, frame_height=64))
    pose = CameraPose(250.0, 250.0, 0.02, 1.0)
    a = render_frame(scene, pose)
    b = render_frame(scene, pose)
    assert a.shape == (64, 96)
    assert a.dtype == np.uint8
    np.testing.assert_array_equal(a, b)
    assert int(a.max()) - int(a.min()) > 60


def test_render_video_translation_shifts_content():
    scene = build_scene(SceneSpec(seed=13))
    poses = [CameraPose(200.0, 200.0, 0.0, 1.0), CameraPose(203.0, 200.0, 0.0, 1.0)]
    frames = render_video(scene, poses)
    assert len(frames) == 2
    # Each frame is quantized exactly once: re-quantizing a uint8 frame
    # would clip it to {0, 255} and no longer match render_frame.
    for frame, pose in zip(frames, poses):
        assert frame.dtype == np.uint8
        np.testing.assert_array_equal(frame, render_frame(scene, pose))
    # Moving the camera +3px in x shifts content 3px toward -x.
    shifted = frames[1][:, :-3].astype(int)
    np.testing.assert_allclose(frames[0][:, 3:].astype(int), shifted, atol=1)


# ---------------------------------------------------------------------------
# Mark points and ground truth
# ---------------------------------------------------------------------------


def make_marks(n_frames: int = 40, seed: int = 17):
    spec = SceneSpec(seed=seed)
    scene = build_scene(spec)
    path_spec = SmoothPathSpec(start_x=220.0, start_y=230.0, vel_x=0.4, vel_y=-0.2)
    _, shaky = generate_camera_path(path_spec, NoiseProfile(seed=seed), n_frames)
    return scene, shaky, emit_mark_points(scene, shaky)


def test_marks_uid_contiguous_and_bounded_lifetime():
    _, _, records = make_marks()
    frames_of: dict[int, list[int]] = {}
    for r in records:
        frames_of.setdefault(r.uid, []).append(r.frame_id)
    assert frames_of
    for uid, frames in frames_of.items():
        assert frames == list(range(frames[0], frames[0] + len(frames)))
        assert len(frames) <= 24


def test_marks_fresh_uids_each_sampling_period():
    _, shaky, records = make_marks()
    first_seen = {}
    for r in records:
        first_seen.setdefault(r.uid, r.frame_id)
    birth_frames = set(first_seen.values())
    assert birth_frames <= {0, 12, 24, 36}
    assert 0 in birth_frames and 12 in birth_frames


def test_marks_deterministic():
    _, _, a = make_marks()
    _, _, b = make_marks()
    assert a == b


def test_marks_stay_on_screen():
    _, _, records = make_marks()
    for r in records:
        assert 0.0 <= r.x < 128.0
        assert 0.0 <= r.y < 128.0


def test_ground_truth_matches_analytic_deltas():
    # Single-layer world: fitting marks must recover the projective
    # pose delta almost exactly.
    n_frames = 40
    _, shaky, records = make_marks(n_frames=n_frames)
    gt = ground_truth_pairs(records, n_frames)
    assert len(gt) == n_frames - 1
    for i, p in enumerate(gt):
        analytic = pose_delta_params(shaky[i], shaky[i + 1], 128, 128)
        assert p.tx == pytest.approx(analytic.tx, abs=1e-6)
        assert p.ty == pytest.approx(analytic.ty, abs=1e-6)
        assert p.theta == pytest.approx(analytic.theta, abs=1e-6)
        assert p.s == pytest.approx(analytic.s, abs=1e-6)


def test_pair_correspondences_requires_shared_marks():
    with pytest.raises(InsufficientMarksError) as info:
        pair_correspondences({0: {1: (0.0, 0.0)}, 1: {2: (1.0, 1.0)}}, 0)
    assert info.value.pair_index == 0
    assert info.value.n_shared == 0


def test_pair_correspondences_returns_uid_ordered_arrays():
    # Insertion order differs from uid order; uid 11 is only in frame 1.
    table = {
        0: {7: (1.0, 2.0), 3: (5.0, 6.0), 9: (0.5, 0.25)},
        1: {9: (1.5, 1.25), 11: (0.0, 0.0), 3: (7.0, 8.0), 7: (3.0, 4.0)},
    }
    src, dst = pair_correspondences(table, 0)
    for arr in (src, dst):
        assert arr.dtype == np.float64
        assert arr.shape == (3, 2)
    np.testing.assert_array_equal(src, [[5.0, 6.0], [1.0, 2.0], [0.5, 0.25]])
    np.testing.assert_array_equal(dst, [[7.0, 8.0], [3.0, 4.0], [1.5, 1.25]])


def test_emit_mark_points_validation():
    scene = build_scene(SceneSpec(seed=19))
    pose = CameraPose(250.0, 250.0, 0.0, 1.0)
    with pytest.raises(InvalidSpecError):
        emit_mark_points(scene, [pose], k_points=0)
    with pytest.raises(InvalidSpecError):
        emit_mark_points(scene, [])


def test_marks_by_frame_indexing():
    _, _, records = make_marks(n_frames=15)
    table = marks_by_frame(records)
    count = sum(len(v) for v in table.values())
    assert count == len(records)
    r = records[0]
    assert table[r.frame_id][r.uid] == (r.x, r.y)
