import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losdof import (
    GroundGrid,
    ScenePlacement,
    k_map,
    k_number,
    phi_policy_gamma,
    phi_policy_h,
    vertical_scene_to_local,
    horizontal_scene_to_local,
)
from losdof.scenarios import EXCLUSION_RADIUS, k_map_point, kmap_rows

from helpers import world_k_number

VERTICAL = ScenePlacement("vertical", 400.0, 400.0, (0.0, 0.0), 40.0)
HORIZONTAL = ScenePlacement("horizontal", 400.0, 200.0, (0.0, 0.0), 40.0)


def k_at(scene, x, y, phi):
    transform = vertical_scene_to_local if scene.mode == "vertical" else horizontal_scene_to_local
    frame = transform(
        ScenePlacement(scene.mode, scene.source_length, scene.source_height,
                       (x, y), scene.receive_length),
        phi,
    )
    return k_number(frame.params, frame.direction).k_exact


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


class TestKMapKernel:
    def test_status_counts(self):
        grid = GroundGrid((-300.0, 300.0, 3), (0.0, 300.0, 2))
        result = k_map(VERTICAL, "gamma", grid)
        assert result.status_counts == {"ok": 6, "excluded": 0, "failed": 0}
        failed = k_map(VERTICAL, "hcontrol", grid)
        assert failed.status_counts == {"ok": 0, "excluded": 0, "failed": 6}

    def test_excluded_points(self):
        # a short source low over the ground: the point below it is within
        # EXCLUSION_RADIUS of the source centre
        scene = ScenePlacement("vertical", 1.0, 0.6, (0.0, 0.0), 2.0)
        result = k_map(scene, "gamma", GroundGrid((-1.0, 1.0, 3), (0.0, 1.0, 2)))
        assert result.status[1, 0] == "excluded"
        assert np.isnan(result.values[1, 0])
        assert result.status_counts == {"ok": 5, "excluded": 1, "failed": 0}

    @pytest.mark.parametrize("phi", [-0.1, 4.0, math.nan])
    def test_fixed_phi_outside_range_rejected(self, phi):
        grid = GroundGrid((-10.0, 10.0, 2), (0.0, 10.0, 2))
        with pytest.raises(ValueError):
            k_map(VERTICAL, phi, grid)

    def test_workers_below_one_rejected(self):
        grid = GroundGrid((-10.0, 10.0, 2), (0.0, 10.0, 2))
        with pytest.raises(ValueError):
            k_map(VERTICAL, "gamma", grid, workers=0)

    def test_point_is_one_point_map(self):
        grid = GroundGrid((-300.0, 300.0, 3), (0.0, 300.0, 2))
        result = k_map(HORIZONTAL, "hcontrol", grid)
        assert k_map_point(HORIZONTAL, "hcontrol", 300.0, 300.0) == result.values[2, 1]

    @given(mode=st.sampled_from(["vertical", "horizontal"]),
           policy=st.one_of(st.sampled_from(["gamma", "hcontrol"]), st.floats(0.0, math.pi)),
           L=st.floats(0.5, 500.0), height=st.floats(0.3, 600.0),
           receive=st.floats(0.5, 60.0), x=st.floats(0.5, 2000.0), y=st.floats(0.5, 2000.0))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_point_reference(self, mode, policy, L, height, receive, x, y):
        if mode == "vertical":
            # hcontrol needs a horizontal scene; a vertical source must clear the ground
            policy = "gamma" if policy == "hcontrol" else policy
            height = max(height, 0.6 * L)
        scene = ScenePlacement(mode, L, height, (0.0, 0.0), receive)
        grid = GroundGrid((-x, x, 4), (0.0, y, 3))
        result = k_map(scene, policy, grid)
        for i, gx in enumerate(grid.xs):
            for j, gy in enumerate(grid.ys):
                point = (float(gx), float(gy))
                if policy == "gamma":
                    phi = phi_policy_gamma(point)
                elif policy == "hcontrol":
                    phi = phi_policy_h(point, scene)
                else:
                    phi = policy
                transform = (vertical_scene_to_local if mode == "vertical"
                             else horizontal_scene_to_local)
                r = transform(ScenePlacement(mode, L, height, point, receive), phi).params.r
                if r < EXCLUSION_RADIUS:
                    assert np.isnan(result.values[i, j]) and result.status[i, j] == "excluded"
                else:
                    expected = k_at(scene, *point, phi)
                    assert result.values[i, j] == pytest.approx(expected, abs=1e-9)
                    assert result.status[i, j] == "ok"


# Maps and hcontrol angles of the per-point code that came before the batched
# kernel (k_number with np.roots piece edges on each point's AssemblyParams).
PINNED_GRID = GroundGrid((-1000.0, 1000.0, 5), (0.0, 1000.0, 3))
PINNED_MAPS = {
    "gamma": [
        [4.924555189800415, 4.130382506864414, 2.7833169344489335],
        [11.533109928138309, 7.992216744605095, 4.130382506864414],
        [1.3285432605448604, 11.533109928138309, 4.924555189800415],
        [11.533109928138309, 7.992216744605095, 4.130382506864414],
        [4.924555189800415, 4.130382506864414, 2.7833169344489335],
    ],
    "hcontrol": [
        [0.6505845394009668, 6.447610365923548, 7.9591453477068255],
        [5.19362722344308, 15.671710014714334, 12.518903947914492],
        [56.49778800979181, 27.837600453647767, 15.393262359257276],
        [5.19362722344308, 15.671710014714336, 12.51890394791449],
        [0.6505845394009668, 6.4476103659235475, 7.959145347706825],
    ],
}
PINNED_SMALL_SCENE = [
    [0.7199559973474131, 0.512569920489925],
    [math.nan, 0.7199559973474131],
    [0.7199559973474131, 0.512569920489925],
]
PINNED_HCONTROL = {
    (-700.0, 300.0): 0.9866572917007838,
    (250.0, 0.0): 3.141592653589793,
    (900.0, 800.0): 2.3410545525068436,
    (-40.0, 1000.0): 0.06778907021693273,
}


class TestPinnedToPerPointCode:
    @pytest.mark.parametrize("scene, policy", [(VERTICAL, "gamma"), (HORIZONTAL, "hcontrol")])
    def test_default_scene_maps(self, scene, policy):
        values = k_map(scene, policy, PINNED_GRID).values
        np.testing.assert_allclose(values, PINNED_MAPS[policy], rtol=0, atol=1e-12)

    def test_nan_mask(self):
        scene = ScenePlacement("vertical", 1.0, 0.6, (0.0, 0.0), 2.0)
        values = k_map(scene, "gamma", GroundGrid((-1.0, 1.0, 3), (0.0, 1.0, 2))).values
        np.testing.assert_allclose(values, PINNED_SMALL_SCENE, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("point", list(PINNED_HCONTROL))
    def test_hcontrol_angles(self, point):
        assert phi_policy_h(point, HORIZONTAL) == pytest.approx(PINNED_HCONTROL[point],
                                                                 rel=0, abs=1e-12)


class TestConcurrency:
    def test_threads_match_serial_and_leave_warning_filters_alone(self):
        grid = GroundGrid((-600.0, 600.0, 9), (0.0, 600.0, 5))
        jobs = [(VERTICAL, "gamma"), (HORIZONTAL, "hcontrol")] * 2

        def run(job):
            return k_map(job[0], job[1], grid).values

        serial = [run(job) for job in jobs]
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, jobs))
            assert warnings.filters == filters
        for got, want in zip(threaded, serial):
            assert np.array_equal(got, want, equal_nan=True)


class TestGroundGrid:
    def test_rejects_negative_y(self):
        with pytest.raises(ValueError):
            GroundGrid((-10.0, 10.0, 3), (-5.0, 10.0, 3))

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            GroundGrid((-10.0, 10.0, 1), (0.0, 10.0, 3))
