import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losdof import (
    AssemblyParams,
    ReceiveDirection,
    boundary_curve,
    extrema_x,
    extrema_y,
    extrema_z,
    fraunhofer,
    k_number,
    ncsmr_boundary,
    r0_threshold,
    rz_boresight,
    smr_boundary,
    smr_boundary_y,
)
from losdof.regions import RESIDUAL_TOL

pytestmark = pytest.mark.filterwarnings("ignore::losdof.FarFieldWarning")

L, RHO = 400.0, 20.0


class TestR0:
    def test_case_study_values(self):
        r0 = r0_threshold(L, RHO)
        assert r0.approx == 16000.0
        assert r0.exact == pytest.approx(15998.75, abs=1e-2)

    def test_matches_boresight_closed_form(self):
        r0 = r0_threshold(L, RHO)
        assert r0.exact == pytest.approx(rz_boresight(L, RHO, 1.0), rel=1e-15)

    def test_equal_arrays_hit_fraunhofer(self):
        # receive length equal to the source length: approx threshold == L^2
        assert r0_threshold(100.0, 50.0).approx == fraunhofer(100.0)

    def test_short_array_flagged(self):
        r0 = r0_threshold(400.0, 0.2)
        assert r0.exact is None
        assert r0.approx == pytest.approx(160.0)

    def test_radicand_limit(self):
        r0 = r0_threshold(400.0, 0.2500001)
        assert r0.exact is not None and r0.exact < 20.0


class TestRzBoresight:
    def test_direct_substitution(self):
        assert rz_boresight(L, RHO, 1.0) == pytest.approx(15998.75, abs=1e-2)
        expected = 400.0 * math.sqrt(1600.0 / 9.0 - 0.25)
        assert rz_boresight(L, RHO, 3.0) == pytest.approx(expected, rel=1e-15)

    def test_k3_distance_consistent_with_bounds(self):
        r3 = rz_boresight(L, RHO, 3.0)
        p = AssemblyParams(L, RHO, r3, math.pi / 2)
        assert 2 * RHO * extrema_z(p).w_max == pytest.approx(3.0, abs=1e-10)

    def test_unreachable_k(self):
        assert rz_boresight(L, RHO, 4 * RHO) is None
        assert rz_boresight(L, RHO, 100.0) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rz_boresight(L, RHO, 0.0)


class TestFraunhofer:
    def test_value(self):
        assert fraunhofer(400.0) == 160000.0

    def test_homogeneity_degree_two(self):
        assert fraunhofer(2 * 400.0) == 4 * fraunhofer(400.0)


class TestSmrBoundary:
    def test_boresight_reduces_to_closed_form(self):
        root = smr_boundary("z", math.pi / 2, L, RHO, 1.0)
        assert root == pytest.approx(rz_boresight(L, RHO, 1.0), rel=1e-9)

    def test_x_peak_near_quarter_turn(self):
        root = smr_boundary("x", math.pi / 4, L, RHO, 1.0)
        r0 = r0_threshold(L, RHO).approx
        assert 0.4 * r0 <= root <= 0.6 * r0

    def test_z_decreases_toward_endfire(self):
        grid = np.linspace(math.pi / 16, math.pi / 2, 12)
        roots = [smr_boundary("z", th, L, RHO, 1.0) for th in grid]
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_residuals(self):
        for theta in np.linspace(math.pi / 16, 15 * math.pi / 16, 7):
            for tag, ex in (("z", extrema_z), ("x", extrema_x)):
                root = smr_boundary(tag, theta, L, RHO, 1.0)
                w = ex(AssemblyParams(L, RHO, root, theta)).w_max
                assert abs(w - 1.0 / (2 * RHO)) <= 1e-9

    def test_dominated_by_r0(self):
        r0 = rz_boresight(L, RHO, 1.0)
        for theta in np.linspace(0.05, math.pi - 0.05, 15):
            root = smr_boundary("z", theta, L, RHO, 1.0)
            assert root is not None and root <= r0 * (1 + 1e-12)

    def test_absent_solution_is_none(self):
        # a target bandwidth beyond the physical bound has no boundary
        assert smr_boundary("z", math.pi / 2, L, RHO, 4 * RHO + 1.0) is None

    def test_exact_k_agreement_in_central_sector(self):
        # near the boundary the bandwidth is effectively constant, so the
        # exact K number sits close to the target
        for theta in np.linspace(math.pi / 8, 7 * math.pi / 8, 5):
            for tag, d in (("z", ReceiveDirection.z()), ("x", ReceiveDirection.x())):
                root = smr_boundary(tag, theta, L, RHO, 1.0)
                k = k_number(AssemblyParams(L, RHO, root, theta), d).k_exact
                assert abs(k - 1.0) < 0.1

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            smr_boundary("y", 1.0, L, RHO, 1.0)


class TestNcsmrBoundary:
    def test_max_extent_near_600(self):
        for tag in ("z", "x"):
            best = 0.0
            for theta in np.linspace(math.pi / 64, 63 * math.pi / 64, 64):
                roots = ncsmr_boundary(tag, theta, L, RHO, 1.0)
                if roots:
                    best = max(best, roots[-1])
            assert 450.0 <= best <= 750.0

    def test_far_field_leaves_region(self):
        roots = ncsmr_boundary("z", 1.0, L, RHO, 1.0)
        assert roots
        p = AssemblyParams(L, RHO, 4.0 * roots[-1], 1.0)
        assert extrema_z(p).w_range < 1.0 / RHO

    def test_multiple_roots_exist_for_some_theta(self):
        counts = [
            len(ncsmr_boundary("z", th, L, RHO, 1.0))
            for th in np.linspace(math.pi / 64, 63 * math.pi / 64, 32)
        ]
        assert max(counts) >= 2

    def test_roots_bracket_sign_changes(self):
        roots = ncsmr_boundary("z", 0.35, L, RHO, 1.0)
        assert len(roots) >= 1
        target = 1.0 / RHO
        for root in roots:
            eps = 1e-6 * root
            lo = extrema_z(AssemblyParams(L, RHO, root - eps, 0.35)).w_range - target
            hi = extrema_z(AssemblyParams(L, RHO, root + eps, 0.35)).w_range - target
            assert lo * hi <= 0

    def test_roots_sorted_and_residual(self):
        roots = ncsmr_boundary("x", 0.6, L, RHO, 1.0)
        assert roots == sorted(roots)
        for root in roots:
            w = extrema_x(AssemblyParams(L, RHO, root, 0.6)).w_range
            assert abs(w - 1.0 / RHO) <= 1e-9


    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_endfire_jumps_are_not_roots(self, theta):
        # at exact endfire w_range jumps across the target between scan
        # points; the sign change there is not a root
        assert ncsmr_boundary("z", theta, L, RHO, 1.0) == []
        roots = ncsmr_boundary("x", theta, L, RHO, 1.0)
        assert roots
        for root in roots:
            w = extrema_x(AssemblyParams(L, RHO, root, theta)).w_range
            assert abs(w - 1.0 / RHO) <= RESIDUAL_TOL


@given(
    L=st.floats(50.0, 500.0),
    rho=st.floats(2.0, 30.0),
    theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    threshold=st.floats(0.5, 3.0),
)
@settings(max_examples=8, deadline=None)
def test_returned_radii_meet_residual_tol(L, rho, theta, threshold):
    def residual(ex, root, attr, target):
        return abs(getattr(ex(AssemblyParams(L, rho, root, theta)), attr) - target)

    for tag, ex in (("z", extrema_z), ("x", extrema_x)):
        root = smr_boundary(tag, theta, L, rho, threshold)
        if root is not None:
            assert residual(ex, root, "w_max", threshold / (2 * rho)) <= RESIDUAL_TOL
        for root in ncsmr_boundary(tag, theta, L, rho, threshold):
            assert residual(ex, root, "w_range", threshold / rho) <= RESIDUAL_TOL
    root = smr_boundary_y(theta, L, rho, threshold)
    if root is not None:
        assert residual(extrema_y, root, "w_max", 2 * threshold / rho) <= RESIDUAL_TOL


class TestYBoundary:
    def test_confined_to_near_region(self):
        root = smr_boundary_y(math.pi / 2, L, RHO, 1.0)
        assert root is not None and root < 1000.0

    def test_unreachable_target(self):
        assert smr_boundary_y(math.pi / 2, L, RHO, 1e6) is None

    def test_residual(self):
        root = smr_boundary_y(math.pi / 2, L, RHO, 1.0)
        w = extrema_y(AssemblyParams(L, RHO, root, math.pi / 2)).w_max
        assert abs(w - 2.0 / RHO) <= 1e-9


class TestBoundaryCurve:
    def test_z_smr_contains_boresight_value(self):
        grid = [math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        curve = boundary_curve("z", "smr", grid, L, RHO, 1.0)
        assert curve.samples[1][1][0] == pytest.approx(15998.75, abs=1e-2)

    @pytest.mark.parametrize("tag,kind", [("x", "smr"), ("y", "smr"), ("z", "smr")])
    def test_theta_mirror_symmetry(self, tag, kind):
        thetas = [0.4, 0.9]
        curve_lo = boundary_curve(tag, kind, thetas, L, RHO, 1.0)
        curve_hi = boundary_curve(tag, kind, [math.pi - t for t in reversed(thetas)], L, RHO, 1.0)
        for (_, lo_radii), (_, hi_radii) in zip(curve_lo.samples, reversed(curve_hi.samples)):
            assert len(lo_radii) == len(hi_radii)
            for a, b in zip(lo_radii, hi_radii):
                assert b == pytest.approx(a, rel=1e-6)

    def test_ncsmr_multiplicity_preserved(self):
        grid = np.linspace(math.pi / 64, 63 * math.pi / 64, 16)
        curve = boundary_curve("z", "ncsmr", grid, L, RHO, 1.0)
        assert any(len(radii) >= 2 for _, radii in curve.samples)

    def test_empty_allowed(self):
        curve = boundary_curve("z", "smr", [math.pi / 2], L, RHO, 1e9)
        assert curve.samples[0][1] == ()

    def test_y_ncsmr_rejected(self):
        with pytest.raises(ValueError):
            boundary_curve("y", "ncsmr", [1.0], L, RHO, 1.0)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            boundary_curve("z", "smr", [1.0, 0.5], L, RHO, 1.0)
