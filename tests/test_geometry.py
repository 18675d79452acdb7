import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losdof import (
    AssemblyParams,
    ReceiveDirection,
    ScenePlacement,
    arctan_star,
    horizontal_scene_to_local,
    vertical_scene_to_local,
)
from losdof.geometry import scene_to_local


class TestArctanStar:
    def test_zero(self):
        assert arctan_star(0.0) == 0.0

    def test_plus_one(self):
        assert arctan_star(1.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_minus_one(self):
        assert arctan_star(-1.0) == pytest.approx(3 * math.pi / 4, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            arctan_star(math.nan)
        with pytest.raises(ValueError):
            arctan_star(math.inf)

    def test_monotone_and_range(self):
        # strictly increasing on each sign, the two half-ranges covering (0, pi)
        pos = np.concatenate([np.geomspace(1e-8, 1e8, 200)])
        vals_pos = [arctan_star(x) for x in pos]
        assert all(b > a for a, b in zip(vals_pos, vals_pos[1:]))
        assert 0.0 < vals_pos[0] < 1e-7 and vals_pos[-1] < math.pi / 2
        neg = -pos[::-1]
        vals_neg = [arctan_star(x) for x in neg]
        assert all(b > a for a, b in zip(vals_neg, vals_neg[1:]))
        assert vals_neg[0] > math.pi / 2 and vals_neg[-1] < math.pi
        # sweeps of +-infinity close the gap around pi/2
        assert arctan_star(1e15) == pytest.approx(math.pi / 2, abs=1e-14)
        assert arctan_star(-1e15) == pytest.approx(math.pi / 2, abs=1e-14)


class TestAssemblyParams:
    def test_derived_quantities(self):
        p = AssemblyParams(400, 20, 100, math.pi / 3)
        assert p.d == pytest.approx(100 * math.sin(math.pi / 3))
        assert p.c == pytest.approx(100 * math.cos(math.pi / 3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(L=0, rho=20, r=100, theta=1.0),
            dict(L=400, rho=-1, r=100, theta=1.0),
            dict(L=400, rho=20, r=0, theta=1.0),
            dict(L=400, rho=20, r=100, theta=3.5),
            dict(L=400, rho=20, r=100, theta=-0.1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AssemblyParams(**kwargs)

    @given(theta=st.floats(0.0, math.pi))
    @settings(max_examples=50, deadline=None)
    def test_end_offsets_ordered(self, theta):
        # (d, c) is the centre offset of length r, d on the receive side of the axis
        p = AssemblyParams(123.0, 4.5, 67.8, theta)
        assert p.d >= 0
        assert math.hypot(p.d, p.c) == pytest.approx(p.r, rel=1e-14)


class TestReceiveDirection:
    def test_axes_map_to_basis(self):
        assert np.allclose(ReceiveDirection.x().unit_vector, [1, 0, 0])
        assert np.allclose(ReceiveDirection.y().unit_vector, [0, 1, 0])
        assert np.allclose(ReceiveDirection.z().unit_vector, [0, 0, 1])

    def test_generic_carries_vector(self):
        v = (3 / 5, 0.0, 4 / 5)
        d = ReceiveDirection.generic(v)
        assert not d.is_axis
        assert np.allclose(d.unit_vector, v)

    def test_generic_requires_unit(self):
        with pytest.raises(ValueError):
            ReceiveDirection.generic((1.0, 2.0, 3.0))


VERTICAL = ScenePlacement("vertical", 400.0, 400.0, 40.0)
HORIZONTAL = ScenePlacement("horizontal", 400.0, 200.0, 40.0)


class TestScenePlacement:
    def test_vertical_must_clear_ground(self):
        with pytest.raises(ValueError):
            ScenePlacement("vertical", 400, 150, 40)

    def test_half_plane(self):
        with pytest.raises(ValueError):
            vertical_scene_to_local(VERTICAL, 10, -1, 0.0)
        with pytest.raises(ValueError):
            horizontal_scene_to_local(HORIZONTAL, 10, -1e-300, 0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ScenePlacement("tilted", 400, 400, 40)


class TestSceneToLocal:
    # the frame is read straight off the ground coordinates, bit for bit
    X = np.array([-2000.0, -0.0, 0.0, 3.0, 1e-7, 1234.5678])
    Y = np.array([0.0, 0.0, 5.0, 4.0, 2000.0, 0.1])

    def test_vertical_frame_is_exact(self):
        d, c, _, _ = scene_to_local("vertical", 400.0, self.X, self.Y, 0.3)
        assert np.array_equal(c, np.full(self.X.shape, 400.0))
        assert np.array_equal(d, np.hypot(self.X, self.Y))

    def test_horizontal_frame_is_exact(self):
        d, c, _, _ = scene_to_local("horizontal", 200.0, self.X, self.Y, 0.3)
        assert np.array_equal(c, self.X)
        assert np.array_equal(d, np.hypot(self.Y, 200.0))


class TestVerticalTransform:
    def test_collinear_case(self):
        frame = vertical_scene_to_local(VERTICAL, 100, 0, phi=0.0)
        assert frame.angle == pytest.approx(0.0, abs=1e-15)
        assert frame.params.theta == pytest.approx(math.atan(100 / 400))
        assert frame.projections[0] == pytest.approx(40.0)
        assert frame.projections[1] == pytest.approx(0.0, abs=1e-12)
        assert frame.projections[2] == 0.0

    def test_quarter_turn_symmetry(self):
        frame = vertical_scene_to_local(VERTICAL, 0, 100, phi=math.pi / 2)
        assert frame.angle == pytest.approx(math.pi / 2)
        assert frame.projections[0] == pytest.approx(40.0)

    def test_3_4_5_triangle(self):
        frame = vertical_scene_to_local(VERTICAL, 3, 4, phi=0.0)
        assert frame.angle == pytest.approx(math.acos(3 / 5))
        assert frame.params.r == pytest.approx(math.hypot(5, 400))

    def test_degenerate_origin_flagged(self):
        frame = vertical_scene_to_local(VERTICAL, 0, 0, phi=1.0)
        assert frame.degenerate
        assert frame.angle == 0.0

    def test_rotation_invariance(self):
        # co-rotating the receive position and phi leaves (r, theta, phi-gamma) alone
        base = vertical_scene_to_local(VERTICAL, 300, 100, phi=0.7)
        alpha = 0.4
        x, y = 300.0, 100.0
        xr = x * math.cos(alpha) - y * math.sin(alpha)
        yr = x * math.sin(alpha) + y * math.cos(alpha)
        rot = vertical_scene_to_local(VERTICAL, xr, yr, phi=0.7 + alpha)
        assert rot.params.r == pytest.approx(base.params.r, rel=1e-12)
        assert rot.params.theta == pytest.approx(base.params.theta, rel=1e-12)
        assert (0.7 + alpha) - rot.angle == pytest.approx(0.7 - base.angle, abs=1e-12)
        assert np.allclose(rot.direction.v, base.direction.v, atol=1e-12)

    @given(
        x=st.floats(-800, 800),
        y=st.floats(0, 800),
        phi=st.floats(0, math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_projections_sum(self, x, y, phi):
        frame = vertical_scene_to_local(VERTICAL, x, y, phi)
        lx, ly, lz = frame.projections
        total = lx * lx + ly * ly + lz * lz
        assert total == pytest.approx(40.0 ** 2, rel=1e-10)


class TestHorizontalTransform:
    def test_boresight_plane(self):
        frame = horizontal_scene_to_local(HORIZONTAL, 0, 123, phi=0.4)
        assert frame.params.theta == pytest.approx(math.pi / 2)

    def test_phi_zero_projects_onto_ez(self):
        frame = horizontal_scene_to_local(HORIZONTAL, 50, 70, phi=0.0)
        lx, ly, lz = frame.projections
        assert lz == pytest.approx(40.0)
        assert lx == pytest.approx(0.0, abs=1e-12)
        assert ly == pytest.approx(0.0, abs=1e-12)

    def test_ground_track_psi(self):
        # receiver on the x'' axis: the o-source plane is vertical, psi = pi/2
        frame = horizontal_scene_to_local(HORIZONTAL, 300, 0, phi=math.pi / 2)
        assert frame.angle == pytest.approx(math.pi / 2)
        lx, ly, lz = frame.projections
        assert lx == pytest.approx(0.0, abs=1e-12)
        assert ly == pytest.approx(40.0)

    def test_theta_supplementary(self):
        for y in (0.0, 55.0, 400.0):
            plus = horizontal_scene_to_local(HORIZONTAL, 220.0, y, phi=0.2)
            minus = horizontal_scene_to_local(HORIZONTAL, -220.0, y, phi=0.2)
            assert plus.params.theta + minus.params.theta == pytest.approx(math.pi, rel=1e-12)

    @given(
        x=st.floats(-2000, 2000),
        y=st.floats(0, 2000),
        phi=st.floats(0, math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_projections_sum(self, x, y, phi):
        frame = horizontal_scene_to_local(HORIZONTAL, x, y, phi)
        lx, ly, lz = frame.projections
        total = lx * lx + ly * ly + lz * lz
        assert total == pytest.approx(40.0 ** 2, rel=1e-10)

    def test_v_hat_is_unit(self):
        frame = horizontal_scene_to_local(HORIZONTAL, 123, 45, phi=1.1)
        assert np.linalg.norm(frame.direction.v) == pytest.approx(1.0, abs=1e-12)
