"""Tests for the synthetic world: scenes, camera paths, projection, marks."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline
from scipy.ndimage import uniform_filter

from synthstab import synthworld
from synthstab.affine import apply_transform, params_to_matrix
from synthstab.errors import InvalidSpecError, MeasurementError
from synthstab.estimator import estimate_sequence
from synthstab.synthworld import (
    MARK_BETA_FRAMES,
    MARK_DTYPE,
    MARK_PERIOD,
    TEXTURE_STYLES,
    CameraPose,
    NoiseProfile,
    SceneSpec,
    SmoothPathSpec,
    build_scene,
    emit_mark_points,
    generate_camera_path,
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
    assert scene.layers[0].alpha is None
    overlay_alpha = scene.layers[1].alpha
    assert overlay_alpha.min() == 0.0
    assert overlay_alpha.max() > 0.0


@pytest.mark.parametrize(
    "shape", [(13, 13), (64, 64), (512, 512), (37, 100), (100, 37), (13, 515), (515, 13)]
)
@pytest.mark.parametrize("radius", [1, 6])
def test_box_blur_is_bitwise_scipy_uniform_filter(shape, radius):
    img = np.random.default_rng(radius).uniform(0.0, 1.0, shape)
    want = uniform_filter(img, size=2 * radius + 1, mode="wrap")
    got = synthworld._box_blur(img, radius)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


# Texture canvases pinned by the sha256 of their float64 bytes, with the
# generator's next draw after the builder.  The frame pins of
# test_generate.py quantize to uint8, so a texture that drifts by an ulp
# without moving a pixel across a rounding boundary passes there and
# fails here.  "overlay" pins the color and then the alpha canvas of
# ``_overlay_layer``.
PINNED_TEXTURES = {
    ("checker", 0): (
        (
            "670c2753c770d8b5188bd54b8effb2cfc157b54712ac790b548df7535c7e1a1e",
        ),
        0.6066357757671799,
    ),
    ("checker", 5): (
        (
            "b6390c289e12b4b683fdf55769b550ab36a064557f8c2564318fe2f7daa4813e",
        ),
        0.40847320541999865,
    ),
    ("checker", 11): (
        (
            "ee9b0374af3cfbdeb2b02dfdd64a8eb41abdd56dd1c11ca482317a83a4ccaea5",
        ),
        0.07042057615419683,
    ),
    ("noise", 0): (
        (
            "7b916d595311a0554e37f272f3488b4edf8e4313a379a0ad6117cb076b511d78",
        ),
        0.7703714729743851,
    ),
    ("noise", 5): (
        (
            "92e2164b986f590e43350c9cad6440dadd96fabf3b63232ccb1f56730be6b618",
        ),
        0.17291071977990802,
    ),
    ("noise", 11): (
        (
            "8b5f57c8f2bef5ce8c17da648e0d0c250404e5f0886ff1b9f0d432c15dd46a69",
        ),
        0.98222582682375,
    ),
    ("blobs", 0): (
        (
            "9b20acad1ca463d9673e94ed086dbaa101bad08678cb36c15b9e5bf5688ef4a8",
        ),
        0.6877254468463578,
    ),
    ("blobs", 5): (
        (
            "2c4f690e561fb0a7ff488b567194954bd9f3baaa9c6a20f5061f79c3e90d1efe",
        ),
        0.8042043684367362,
    ),
    ("blobs", 11): (
        (
            "ee6ffb8ab4819c0c65f5872eea2ddd202af1ed9de3668c8f546c7f00db3abc15",
        ),
        0.6948289190372122,
    ),
    ("mixed", 0): (
        (
            "d84f45d6975ba195825f5eb522099c9e9c799a36f64677b44501351b9ad024f9",
        ),
        0.20776270910939687,
    ),
    ("mixed", 5): (
        (
            "f0ef528cd1e3794c1bade99100f7e67a4fd4a7cf2f6573f3b896b60b8d93183e",
        ),
        0.40721644937453616,
    ),
    ("mixed", 11): (
        (
            "50c9df20da2cb496b30ce1adb5a32b794d6f7eb647f8e39f50cb45b1fccf77b7",
        ),
        0.5525960712370883,
    ),
    ("overlay", 0): (
        (
            "57bee2911a1f901f89cebb669f3eb07c086e31a9027119a38a299e020487d613",
            "5d8fa340b6ae93cb6387bf4a2f15eac2eb665f47fa311d660dfb2f3438c11e51",
        ),
        0.6510751442785877,
    ),
    ("overlay", 5): (
        (
            "cb07916e2e26bf91d3340d8f9f8f1b615a3cb53dce498f28d124356e73d1cfbc",
            "bb67a45c2a25887b25978d160ca726e78af4ee8ef70433bd202ddf804e146ce2",
        ),
        0.27834966021660734,
    ),
    ("overlay", 11): (
        (
            "049516a4c849b4fffec9f2cee12ba22787ca4419de0900994cf703289df9203d",
            "b834d6d4a72cdaa2888f0620d58afe5cad43c7fa26d328b946c24512885132fd",
        ),
        0.24513293340422426,
    ),
}


def _texture_canvases(name: str, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    if name == "overlay":
        return synthworld._overlay_layer(rng, 512)
    return (synthworld._TEXTURE_BUILDERS[name](rng, 512),)


def test_pinned_textures_cover_every_builder():
    names = {name for name, _ in PINNED_TEXTURES}
    assert names == set(synthworld._TEXTURE_BUILDERS) | {"overlay"}


@pytest.mark.parametrize("name, seed", sorted(PINNED_TEXTURES))
def test_texture_canvases_are_pinned(name, seed):
    rng = np.random.default_rng(seed)
    canvases = _texture_canvases(name, rng)
    digests, next_draw = PINNED_TEXTURES[name, seed]
    assert all(c.dtype == np.float64 and c.shape == (512, 512) for c in canvases)
    assert tuple(hashlib.sha256(c.tobytes()).hexdigest() for c in canvases) == digests
    assert rng.random() == next_draw


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


@pytest.mark.parametrize("n_knots", range(3, 31))
def test_wander_spline_matches_scipy_natural_cubic(n_knots):
    # Waypoints and spacing drawn as random_smooth_path draws them.
    rng = np.random.default_rng(n_knots)
    spacing = rng.uniform(30.0, 55.0)
    values = tuple(rng.uniform(-25.0, 25.0, n_knots))
    knots = np.arange(n_knots) * spacing
    times = np.concatenate([knots, rng.uniform(0.0, knots[-1], 40)])
    want = make_interp_spline(knots, np.array(values), k=3, bc_type="natural")(times)
    got = [synthworld._natural_cubic(values, spacing, float(t)) for t in times]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_wander_spline_is_solved_once_per_path():
    spec = SmoothPathSpec(
        start_x=250.0,
        start_y=250.0,
        wander_x=(0.0, 12.0, -8.0, 20.0, 3.0),
        wander_y=(5.0, -15.0, 10.0, -2.0),
        wander_spacing=30.0,
    )
    synthworld._natural_moments.cache_clear()
    smooth, _ = generate_camera_path(spec, NoiseProfile.still(), 150)
    info = synthworld._natural_moments.cache_info()
    assert (info.misses, info.hits) == (2, 2 * 150 - 2)
    # Past the last waypoint the offset holds its final value.
    assert smooth[-1].cx == pytest.approx(250.0 + 3.0, abs=1e-12)
    assert smooth[-1].cy == pytest.approx(250.0 - 2.0, abs=1e-12)


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
    _, _, marks = make_marks()
    assert marks.dtype == MARK_DTYPE
    assert len(marks)
    for uid in np.unique(marks["uid"]):
        frames = marks["frame"][marks["uid"] == uid]
        np.testing.assert_array_equal(frames, np.arange(frames[0], frames[0] + len(frames)))
        assert len(frames) <= MARK_BETA_FRAMES


def test_marks_sorted_by_frame_then_uid():
    _, _, marks = make_marks()
    order = np.lexsort((marks["uid"], marks["frame"]))
    np.testing.assert_array_equal(order, np.arange(len(marks)))
    keys = marks[["frame", "uid"]]
    assert not (keys[1:] == keys[:-1]).any()


def test_marks_fresh_uids_each_sampling_period():
    _, shaky, marks = make_marks()
    _, first = np.unique(marks["uid"], return_index=True)
    birth_frames = set(marks["frame"][first].tolist())
    assert birth_frames <= set(range(0, 40, MARK_PERIOD))
    assert 0 in birth_frames and MARK_PERIOD in birth_frames


def test_marks_deterministic():
    _, _, a = make_marks()
    _, _, b = make_marks()
    assert a.tobytes() == b.tobytes()


def test_marks_stay_on_screen():
    _, _, marks = make_marks()
    assert ((marks["x"] >= 0.0) & (marks["x"] < 128.0)).all()
    assert ((marks["y"] >= 0.0) & (marks["y"] < 128.0)).all()


def test_ground_truth_matches_analytic_deltas():
    # Single-layer world: fitting marks must recover the projective
    # pose delta almost exactly.
    n_frames = 40
    scene, shaky, marks = make_marks(n_frames=n_frames)
    frames = render_video(scene, shaky)
    est, substituted = estimate_sequence(frames, "oracle", marks=marks)
    assert substituted == []
    for i, p in enumerate(est):
        analytic = pose_delta_params(shaky[i], shaky[i + 1], 128, 128)
        assert p.tx == pytest.approx(analytic.tx, abs=1e-6)
        assert p.ty == pytest.approx(analytic.ty, abs=1e-6)
        assert p.theta == pytest.approx(analytic.theta, abs=1e-6)
        assert p.s == pytest.approx(analytic.s, abs=1e-6)


def _marks(*rows):
    return np.array(list(rows), dtype=MARK_DTYPE)


def test_pair_correspondences_requires_shared_marks():
    with pytest.raises(MeasurementError, match=r"pair 0 shares only 0 tracked point\(s\)"):
        pair_correspondences(_marks((0, 1, 0.0, 0.0), (1, 2, 1.0, 1.0)), 0)


def test_pair_correspondences_returns_uid_ordered_arrays():
    # Rows within a frame are out of uid order; uid 11 is only in
    # frame 1, and frames 2 and -1 must not leak into pair 0.
    marks = _marks(
        (-1, 3, 9.0, 9.0),
        (0, 7, 1.0, 2.0), (0, 3, 5.0, 6.0), (0, 9, 0.5, 0.25),
        (1, 9, 1.5, 1.25), (1, 11, 0.0, 0.0), (1, 3, 7.0, 8.0), (1, 7, 3.0, 4.0),
        (2, 3, 9.0, 9.0),
    )
    src, dst = pair_correspondences(marks, 0)
    for arr in (src, dst):
        assert arr.dtype == np.float64
        assert arr.shape == (3, 2)
    np.testing.assert_array_equal(src, [[5.0, 6.0], [1.0, 2.0], [0.5, 0.25]])
    np.testing.assert_array_equal(dst, [[7.0, 8.0], [3.0, 4.0], [1.5, 1.25]])


def test_pair_correspondences_match_a_uid_lookup():
    # Loop reference: index each frame's marks by uid, match shared uids.
    _, _, marks = make_marks()
    table: dict[int, dict[int, tuple[float, float]]] = {}
    for f, uid, x, y in marks.tolist():
        table.setdefault(f, {})[uid] = (x, y)
    for i in range(int(marks["frame"].max())):
        shared = sorted(set(table[i]) & set(table[i + 1]))
        src, dst = pair_correspondences(marks, i)
        np.testing.assert_array_equal(src, [table[i][u] for u in shared])
        np.testing.assert_array_equal(dst, [table[i + 1][u] for u in shared])


def test_emit_mark_points_validation():
    scene = build_scene(SceneSpec(seed=19))
    with pytest.raises(InvalidSpecError):
        emit_mark_points(scene, [])
