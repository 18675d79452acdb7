import math

import numpy as np
import pytest

from losdof import (
    GroundGrid,
    ReceiveDirection,
    ScenePlacement,
    k_map,
    k_number,
    phi_policy_gamma,
    phi_policy_h,
    vertical_scene_to_local,
    horizontal_scene_to_local,
)
from losdof.scenarios import kmap_rows

from helpers import world_k_number

pytestmark = pytest.mark.filterwarnings("ignore::losdof.FarFieldWarning")

VERTICAL = ScenePlacement("vertical", 400.0, 400.0, (0.0, 0.0), 40.0)
HORIZONTAL = ScenePlacement("horizontal", 400.0, 200.0, (0.0, 0.0), 40.0)


def k_at(scene, x, y, phi):
    transform = vertical_scene_to_local if scene.mode == "vertical" else horizontal_scene_to_local
    frame = transform(
        ScenePlacement(scene.mode, scene.source_length, scene.source_height,
                       (x, y), scene.receive_length),
        phi,
    )
    direction = ReceiveDirection.generic(frame.params.v_hat)
    return k_number(frame.params, direction).k_exact


class TestGammaPolicy:
    @pytest.mark.parametrize(
        "point,expected",
        [((1.0, 0.0), 0.0), ((0.0, 1.0), math.pi / 2), ((-1.0, 0.0), math.pi)],
    )
    def test_cardinal_points(self, point, expected):
        assert phi_policy_gamma(point) == pytest.approx(expected, abs=1e-15)

    def test_origin_convention(self):
        assert phi_policy_gamma((0.0, 0.0)) == 0.0


class TestHControlPolicy:
    def test_boresight_plane_is_parallel(self):
        assert phi_policy_h((0.0, 300.0), HORIZONTAL) == 0.0

    def test_positive_x_tilts_past_quarter_turn(self):
        for x, y in ((300.0, 150.0), (500.0, 60.0), (250.0, 400.0)):
            assert phi_policy_h((x, y), HORIZONTAL) > math.pi / 2

    def test_negative_x_stays_below_quarter_turn(self):
        for x, y in ((-300.0, 150.0), (-500.0, 60.0)):
            phi = phi_policy_h((x, y), HORIZONTAL)
            assert 0.0 < phi < math.pi / 2

    def test_mirror_pairs_sum_to_pi(self):
        for x, y in ((250.0, 120.0), (420.0, 310.0), (150.0, 40.0)):
            total = phi_policy_h((x, y), HORIZONTAL) + phi_policy_h((-x, y), HORIZONTAL)
            assert total == pytest.approx(math.pi, abs=1e-9)

    def test_requires_horizontal_scene(self):
        with pytest.raises(ValueError):
            phi_policy_h((10.0, 10.0), VERTICAL)


class TestWorldFrameAgreement:
    # the full receiving-frame pipeline against a direct world-coordinate
    # brute-force evaluation, for both scene modes
    @pytest.mark.parametrize(
        "x,y,phi", [(300.0, 200.0, 0.3), (150.0, 450.0, 1.2), (-250.0, 100.0, 2.0)]
    )
    def test_vertical(self, x, y, phi):
        world = world_k_number(
            (0, 0, 400.0), (0, 0, 1.0), 400.0,
            (x, y, 0.0), (math.cos(phi), math.sin(phi), 0.0), 20.0,
        )
        assert k_at(VERTICAL, x, y, phi) == pytest.approx(world, abs=1e-3)

    @pytest.mark.parametrize(
        "x,y,phi", [(300.0, 200.0, 0.3), (-400.0, 350.0, 2.2), (500.0, 400.0, 0.0)]
    )
    def test_horizontal(self, x, y, phi):
        world = world_k_number(
            (0, 0, 200.0), (1.0, 0, 0), 400.0,
            (x, y, 0.0), (math.cos(phi), math.sin(phi), 0.0), 20.0,
        )
        assert k_at(HORIZONTAL, x, y, phi) == pytest.approx(world, abs=1e-3)

    def test_mirror_half_plane(self):
        # evaluating the mirrored receive position directly in world
        # coordinates matches the pipeline value for the kept half-plane
        x, y, phi = 260.0, 180.0, 0.8
        mirrored = world_k_number(
            (0, 0, 400.0), (0, 0, 1.0), 400.0,
            (x, -y, 0.0), (math.cos(-phi), math.sin(-phi), 0.0), 20.0,
        )
        assert k_at(VERTICAL, x, y, phi) == pytest.approx(mirrored, abs=1e-3)


class TestKMap:
    def test_vertical_gamma_circle_invariance(self):
        radius = 420.0
        ks = []
        for t in np.linspace(0.05, math.pi - 0.05, 16):
            x, y = radius * math.cos(t), radius * math.sin(t)
            ks.append(k_at(VERTICAL, x, y, phi_policy_gamma((x, y))))
        assert max(ks) - min(ks) <= 1e-3

    def test_vertical_fixed_phi_trough(self):
        # where the orientation is perpendicular to the radial direction the
        # projection onto e_x vanishes and K collapses
        phi = 0.0
        worst = k_at(VERTICAL, 0.0, 380.0, phi)  # gamma = pi/2, |phi-gamma| = pi/2
        good = k_at(VERTICAL, 380.0, 1.0, phi)
        assert worst < 0.1 * good

    def test_horizontal_fixed_zero_x_symmetric(self):
        for x, y in ((300.0, 150.0), (500.0, 420.0)):
            k_plus = k_at(HORIZONTAL, x, y, 0.0)
            k_minus = k_at(HORIZONTAL, -x, y, 0.0)
            assert k_minus == pytest.approx(k_plus, abs=1e-6)

    def test_map_assembly_and_bounds(self):
        grid = GroundGrid((-400.0, 400.0, 5), (0.0, 400.0, 4))
        result = k_map(VERTICAL, "gamma", grid)
        assert result.values.shape == (5, 4)
        finite = result.values[np.isfinite(result.values)]
        assert np.all(finite >= 0.0)
        assert np.all(finite <= 4 * 20.0)
        assert result.policy == "gamma"
        rows = list(kmap_rows(result))
        assert len(rows) == 20
        assert rows[0][:2] == (-400.0, 0.0)
        assert rows[1][:2] == (-400.0, 400.0 / 3.0)

    def test_fixed_policy_label(self):
        grid = GroundGrid((-10.0, 10.0, 2), (0.0, 10.0, 2))
        result = k_map(VERTICAL, 0.5, grid)
        assert result.policy == "fixed(0.5)"

    def test_hcontrol_requires_horizontal(self):
        grid = GroundGrid((-10.0, 10.0, 2), (0.0, 10.0, 2))
        values = k_map(VERTICAL, "hcontrol", grid).values
        assert np.all(np.isnan(values))

    def test_workers_produce_identical_map(self):
        grid = GroundGrid((-300.0, 300.0, 3), (0.0, 300.0, 3))
        serial = k_map(HORIZONTAL, "hcontrol", grid, workers=1)
        parallel = k_map(HORIZONTAL, "hcontrol", grid, workers=2)
        assert np.array_equal(serial.values, parallel.values, equal_nan=True)

    def test_unknown_policy_rejected(self):
        grid = GroundGrid((-10.0, 10.0, 2), (0.0, 10.0, 2))
        with pytest.raises(ValueError):
            k_map(VERTICAL, "spiral", grid)


class TestGroundGrid:
    def test_rejects_negative_y(self):
        with pytest.raises(ValueError):
            GroundGrid((-10.0, 10.0, 3), (-5.0, 10.0, 3))

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            GroundGrid((-10.0, 10.0, 1), (0.0, 10.0, 3))
