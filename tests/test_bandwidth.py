import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losdof import (
    AssemblyParams,
    ReceiveDirection,
    bandwidth_generic,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    direction_cosine,
    effective_interval,
    extrema,
    extrema_x,
    extrema_y,
    extrema_z,
    rz_boresight,
)
from losdof.bandwidth import _axis_extrema, axis_bandwidth

from helpers import random_params, scan_extrema, scan_spread

PARAM_STRATEGY = dict(
    L=st.floats(10.0, 1e3),
    rho=st.floats(1.0, 1e2),
    r=st.floats(10.0, 1e5),
    theta=st.floats(1e-3, math.pi - 1e-3),
)


class TestDirectionCosine:
    def test_3_4_5(self):
        assert direction_cosine(3.0, 4.0) == pytest.approx(0.6, abs=1e-15)

    def test_zero_t(self):
        assert direction_cosine(0.0, 5.0) == 0.0

    def test_degenerate_c(self):
        assert direction_cosine(7.0, 0.0) == 1.0
        assert direction_cosine(-7.0, 0.0) == -1.0

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            direction_cosine(0.0, 0.0)

    def test_odd_and_bounded(self):
        ts = np.linspace(-50, 50, 101)
        vals = direction_cosine(ts, 2.5)
        assert np.allclose(vals, -direction_cosine(-ts, 2.5))
        assert np.all(np.abs(vals) < 1.0)


class TestPointwiseForms:
    def test_wz_forced_exact_value(self):
        # at boresight the defining equation of the K0=1 threshold gives 1/40
        r = rz_boresight(400.0, 20.0, 1.0)
        p = AssemblyParams(400.0, 20.0, r, math.pi / 2)
        assert bandwidth_z(0.0, p) == pytest.approx(0.025, abs=1e-12)

    def test_wx_direct_substitution(self):
        p = AssemblyParams(400.0, 20.0, 300.0, math.pi / 2)
        expected = 1.0 - 300.0 / math.sqrt(300.0 ** 2 + 200.0 ** 2)
        assert bandwidth_x(0.0, p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.16795, abs=5e-6)

    def test_wy_zero_at_centre(self):
        p = AssemblyParams(400.0, 20.0, 100.0, math.pi / 2)
        assert bandwidth_y(0.0, p) == 0.0

    def test_wx_branch_boundary_continuity(self):
        # |cos theta| = L/(2r): the near-end distance vanishes and both
        # branch expressions coincide
        L, r = 400.0, 500.0
        theta = math.acos(L / (2 * r))
        p = AssemblyParams(L, 20.0, r, theta)
        near, far = abs(p.c) - L / 2, abs(p.c) + L / 2
        assert near == pytest.approx(0.0, abs=1e-9)
        xs = np.linspace(-10, 20, 7)
        inside = 1.0 - direction_cosine(xs + p.d, far)
        outside = direction_cosine(xs + p.d, max(near, 1e-300)) - direction_cosine(xs + p.d, far)
        assert np.allclose(inside, outside, atol=1e-10)

    # The mirror angle pi - theta is itself rounded to the nearest float, so
    # the compared geometries differ at the last ulp.  The identities relate
    # differences of unit-bounded direction cosines, so the relative
    # tolerance is referenced to that unit scale via the absolute floor.
    SYM = dict(rel=1e-12, abs=1e-12)

    @given(**PARAM_STRATEGY, frac=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_wz_mirror_symmetry(self, L, rho, r, theta, frac):
        p = AssemblyParams(L, rho, r, theta)
        q = AssemblyParams(L, rho, r, math.pi - theta)
        z = -rho + 2 * rho * frac
        assert bandwidth_z(-z, q) == pytest.approx(bandwidth_z(z, p), **self.SYM)

    @given(**PARAM_STRATEGY, frac=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_wx_theta_symmetry(self, L, rho, r, theta, frac):
        p = AssemblyParams(L, rho, r, theta)
        q = AssemblyParams(L, rho, r, math.pi - theta)
        lo, hi = effective_interval(p, ReceiveDirection.x())
        x = lo + (hi - lo) * frac
        assert bandwidth_x(x, q) == pytest.approx(bandwidth_x(x, p), **self.SYM)

    @given(**PARAM_STRATEGY, frac=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_wy_even_and_theta_symmetric(self, L, rho, r, theta, frac):
        p = AssemblyParams(L, rho, r, theta)
        q = AssemblyParams(L, rho, r, math.pi - theta)
        y = rho * frac
        w = bandwidth_y(y, p)
        # evenness is exact by construction (the form only sees |y|)
        assert bandwidth_y(-y, p) == w
        assert bandwidth_y(y, q) == pytest.approx(w, **self.SYM)

    @given(**PARAM_STRATEGY)
    @settings(max_examples=80, deadline=None)
    def test_range_bounds(self, L, rho, r, theta):
        p = AssemblyParams(L, rho, r, theta)
        zs = np.linspace(-rho, rho, 33)
        assert np.all(bandwidth_z(zs, p) >= 0)
        assert np.all(bandwidth_z(zs, p) <= 2.0)
        xs = np.linspace(-min(p.d, rho), rho, 33)
        assert np.all(bandwidth_x(xs, p) >= 0)
        assert np.all(bandwidth_x(xs, p) <= 2.0)
        ys = np.linspace(0, rho, 33)
        assert np.all(bandwidth_y(ys, p) >= 0)
        assert np.all(bandwidth_y(ys, p) <= 2.0)


class TestGenericDirection:
    def test_matches_wz_on_grid(self):
        p = AssemblyParams(400.0, 20.0, 1000.0, math.pi / 3)
        for z in np.linspace(-20, 20, 9):
            assert bandwidth_generic(z, (0, 0, 1), p) == pytest.approx(
                bandwidth_z(z, p), abs=1e-9
            )

    def test_matches_wx_at_boresight_case(self):
        # closed form vs brute force for the frozen x-direction value
        p = AssemblyParams(400.0, 20.0, 300.0, math.pi / 2)
        brute = bandwidth_generic(0.0, (1, 0, 0), p)
        assert bandwidth_x(0.0, p) == pytest.approx(brute, abs=1e-9)
        assert brute == pytest.approx(0.16795, abs=5e-6)

    def test_direction_reversal_invariant(self):
        # negating the direction swaps max and min of the frequency profile,
        # so the spread at any fixed receive point is unchanged; the point
        # l*v maps onto coordinate -l of the reversed direction
        p = AssemblyParams(400.0, 20.0, 500.0, 1.0)
        v = np.array([0.6, 0.0, 0.8])
        assert bandwidth_generic(7.0, -v, p) == pytest.approx(
            bandwidth_generic(-7.0, v, p), rel=1e-12
        )
        assert bandwidth_generic(0.0, -v, p) == pytest.approx(
            bandwidth_generic(0.0, v, p), rel=1e-12
        )

    def test_tilted_below_component_sum(self):
        # spread along a tilted direction never exceeds the x+z spreads combined
        p = AssemblyParams(400.0, 20.0, 800.0, 1.1)
        for phi in (0.3, 0.7, 1.2):
            v = (math.sin(phi), 0.0, math.cos(phi))
            w = bandwidth_generic(5.0, v, p)
            assert w <= bandwidth_z(5.0, p) + bandwidth_x(5.0, p) + 1e-9

    def test_matches_wy_on_half_interval(self):
        p = AssemblyParams(400.0, 20.0, 100.0, math.pi / 2)
        for y in np.linspace(0.5, 20, 8):
            assert bandwidth_generic(y, (0, 1, 0), p) == pytest.approx(
                bandwidth_y(y, p), abs=1e-9
            )

    def test_zero_distance_rejected(self):
        # receive point placed exactly on the source segment
        p = AssemblyParams(400.0, 20.0, 10.0, math.pi / 2)
        with pytest.raises(ValueError):
            bandwidth_generic(-10.0, (1.0, 0.0, 0.0), p)

    def test_extremum_next_to_source_end(self):
        # the stationary point of the spatial frequency lies next to a source end
        p = AssemblyParams(104.4774814141741, 14.14624603843816, 50.48876025439258,
                           0.68317859412455)
        v = (-0.9217550583353455, -0.08889529241034258, 0.3774456774431036)
        l = -1.5371088335732495
        assert bandwidth_generic(l, v, p) == pytest.approx(1.0334066068645413, abs=1e-9)
        assert bandwidth_generic(l, v, p) == pytest.approx(scan_spread(l, v, p), abs=1e-9)

    @given(**PARAM_STRATEGY, frac=st.floats(-1.0, 1.0),
           v=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda c: math.hypot(*c) > 0.1))
    @settings(max_examples=80, deadline=None)
    def test_scan_oracle_and_reversal(self, L, rho, r, theta, frac, v):
        p = AssemblyParams(L, rho, r, theta)
        v = np.asarray(v) / math.hypot(*v)
        l = frac * rho
        assert bandwidth_generic(l, v, p) == pytest.approx(scan_spread(l, v, p), abs=1e-9)
        assert bandwidth_generic(l, -v, p) == bandwidth_generic(-l, v, p)

    def test_array_matches_scalar(self):
        p = AssemblyParams(400.0, 20.0, 500.0, 1.0)
        v = (0.48, 0.6, 0.64)
        ls = np.linspace(-20.0, 20.0, 9)
        assert np.array_equal(bandwidth_generic(ls, v, p), [bandwidth_generic(l, v, p) for l in ls])

    def test_requires_unit_vector(self):
        p = AssemblyParams(400.0, 20.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            bandwidth_generic(0.0, (1.0, 1.0, 0.0), p)

    @pytest.mark.parametrize("v", [(1.0 + 1e-10, 0.0, 0.0), (math.nan, 0.0, 0.0)])
    def test_unit_rule_shared_with_receive_direction(self, v):
        # one rule: a vector ReceiveDirection (so k_number) rejects is rejected here too
        p = AssemblyParams(400.0, 20.0, 700.0, 1.0)
        with pytest.raises(ValueError, match="unit norm"):
            ReceiveDirection.generic(v)
        with pytest.raises(ValueError, match="unit norm"):
            bandwidth_generic(0.0, v, p)

    def test_random_draw_agreement(self):
        rng = np.random.default_rng(11)
        fns = {"z": bandwidth_z, "x": bandwidth_x, "y": bandwidth_y}
        axes = {"z": (0, 0, 1), "x": (1, 0, 0), "y": (0, 1, 0)}
        for _ in range(25):
            p = random_params(rng)
            for tag in ("z", "x", "y"):
                lo, hi = effective_interval(p, ReceiveDirection(tag))
                # stay off the mirror-fold endpoint where the brute-force
                # geometry degenerates onto the source axis
                l = lo + (hi - lo) * float(rng.uniform(0.05, 1.0))
                closed = float(fns[tag](l, p))
                assert bandwidth_generic(l, axes[tag], p) == pytest.approx(
                    closed, abs=1e-9
                )


class TestExtrema:
    def test_boresight_wmax_forced(self):
        r = rz_boresight(400.0, 20.0, 1.0)
        p = AssemblyParams(400.0, 20.0, r, math.pi / 2)
        s = extrema_z(p)
        assert s.w_max == pytest.approx(0.025, abs=1e-12)
        assert s.w_max == pytest.approx(2 * direction_cosine(200.0, r), abs=1e-15)
        assert 2 * p.rho * s.w_max == pytest.approx(1.0, abs=1e-10)

    def test_z_argmax_clamped(self):
        p = AssemblyParams(400.0, 20.0, 1000.0, 0.3)
        s = extrema_z(p)
        assert s.argmax_location == -20.0
        q = AssemblyParams(400.0, 20.0, 1000.0, math.pi - 0.3)
        assert extrema_z(q).argmax_location == 20.0

    def test_x_interval_shrinks_near_axis(self):
        p = AssemblyParams(400.0, 50.0, 20.0, math.pi / 2)
        s = extrema_x(p)
        assert s.effective_interval == (-20.0, 50.0)

    def test_x_first_branch_rows(self):
        # projection inside and d >= rho: both extrema at the interval ends
        p = AssemblyParams(400.0, 20.0, 300.0, math.pi / 2)
        s = extrema_x(p)
        far = abs(p.c) + 200.0
        assert s.w_max == pytest.approx(1.0 - direction_cosine(p.d - 20.0, far), abs=1e-15)
        assert s.w_min == pytest.approx(1.0 - direction_cosine(p.d + 20.0, far), abs=1e-15)

    def test_x0_direct_substitution(self):
        # frozen arithmetic: a=2, b=1, d=0.5
        num = 2.0 ** (2.0 / 3.0) - 1.0
        den = 1.0 - 2.0 ** (-4.0 / 3.0)
        x0 = math.sqrt(num / den) - 0.5
        assert x0 == pytest.approx(0.4869, abs=2e-4)

    def test_x_interior_peak_branch(self):
        # steep oblique geometry: the stationary coordinate falls inside the
        # interval and the minimum is the smaller of the two interval ends
        p = AssemblyParams(38.156, 29.389, 157.212, 2.5035)
        assert abs(p.c) > p.L / 2  # the centre projects beyond the source
        s = extrema_x(p)
        lo, hi = s.effective_interval
        assert lo < s.argmax_location < hi
        o_lo, o_hi = scan_extrema(lambda v: bandwidth_x(v, p), lo, hi)
        assert s.w_max == pytest.approx(o_hi, abs=1e-10)
        assert s.w_min == pytest.approx(o_lo, abs=1e-10)
        assert s.w_min == pytest.approx(
            min(float(bandwidth_x(lo, p)), float(bandwidth_x(hi, p))), abs=1e-15
        )

    def test_y_min_is_zero_and_max_equals_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = extrema_y(random_params(rng))
            assert s.w_min == 0.0
            assert s.w_max == s.w_range

    def test_y_scan_agreement_frozen_case(self):
        p = AssemblyParams(400.0, 20.0, 100.0, math.pi / 2)
        s = extrema_y(p)
        lo, hi = scan_extrema(lambda y: bandwidth_y(y, p), 0.0, 20.0)
        assert s.w_max == pytest.approx(hi, abs=1e-8)
        assert s.w_max == pytest.approx(bandwidth_y(20.0, p), abs=1e-15)

    def test_y_interior_peak_close_range(self):
        # very close range with a long receive array: the bandwidth peaks
        # inside the interval, not at its end
        p = AssemblyParams(10.0, 100.0, 10.0, math.pi / 2)
        s = extrema_y(p)
        assert 0.0 < s.argmax_location < 100.0
        lo, hi = scan_extrema(lambda y: bandwidth_y(y, p), 0.0, 100.0)
        assert s.w_max == pytest.approx(hi, abs=1e-8)
        assert s.w_max > bandwidth_y(100.0, p)

    def test_scan_oracle_sweep(self):
        rng = np.random.default_rng(123)
        fns = {"z": bandwidth_z, "x": bandwidth_x, "y": bandwidth_y}
        for _ in range(60):
            p = random_params(rng)
            for tag, ex in (("z", extrema_z), ("x", extrema_x), ("y", extrema_y)):
                s = ex(p)
                lo, hi = s.effective_interval
                o_lo, o_hi = scan_extrema(lambda v: fns[tag](v, p), lo, hi)
                assert s.w_max == pytest.approx(o_hi, abs=1e-8)
                assert s.w_min == pytest.approx(o_lo, abs=1e-8)
                assert lo <= s.argmax_location <= hi
                assert 0.0 <= s.w_min <= s.w_max <= 2.0
                assert s.w_range == s.w_max - s.w_min

    def test_peak_bandwidth_decreasing_in_distance(self):
        # the boresight-peak value shrinks monotonically as the arrays separate
        vals = []
        for r in np.geomspace(50, 5000, 12):
            p = AssemblyParams(400.0, 20.0, r, math.pi / 2)
            vals.append(extrema_z(p).w_max)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_dispatch(self):
        p = AssemblyParams(400.0, 20.0, 100.0, 1.0)
        assert extrema(p, ReceiveDirection.z()) == extrema_z(p)
        with pytest.raises(ValueError):
            extrema(p, ReceiveDirection.generic((0, 0, 1)))

    def test_endfire_finite(self):
        # theta = 0 keeps every closed form finite
        p = AssemblyParams(400.0, 20.0, 1000.0, 0.0)
        s = extrema_z(p)
        assert math.isfinite(s.w_max) and math.isfinite(s.w_min)
        assert s.w_max == 0.0  # beyond the source end, no angular spread on e_z


AXIS_FORMS = {"z": bandwidth_z, "x": bandwidth_x, "y": bandwidth_y}


@given(
    tag=st.sampled_from("zxy"),
    L=st.floats(10.0, 1e3),
    rho=st.floats(1.0, 1e2),
    theta=st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(0.0, math.pi)),
)
@settings(max_examples=60, deadline=None)
def test_axis_extrema_kernel_over_r(tag, L, rho, theta):
    r = np.geomspace(1e-3, 1e6, 37)
    if abs(math.cos(theta)) > 1e-9:
        # straddle the projection-inside switch r*|cos(theta)| = L/2
        edge = 0.5 * L / abs(math.cos(theta))
        r = np.sort(np.r_[r, edge * np.array([1 - 1e-9, 1.0, 1 + 1e-9])])
    w_max, w_min, argmax = _axis_extrema(tag, theta, L, rho, r)
    for i, ri in enumerate(r):
        # one distance gives the bits of its entry in the array call
        np.testing.assert_array_equal([w_max[i], w_min[i], argmax[i]],
                                      _axis_extrema(tag, theta, L, rho, float(ri)))
        p = AssemblyParams(L, rho, ri, theta)
        if ri < 10.0 or (p.d == 0.0 and ri <= 0.5 * L + rho):
            # near field, or a receive array that meets the source segment
            continue
        lo, hi = effective_interval(p, ReceiveDirection(tag))
        o_lo, o_hi = scan_extrema(lambda v: AXIS_FORMS[tag](v, p), lo, hi)
        assert w_max[i] == pytest.approx(o_hi, abs=1e-9)
        assert w_min[i] == pytest.approx(o_lo, abs=1e-9)


@given(tag=st.sampled_from("zxy"), L=st.floats(10.0, 1e3), rho=st.floats(1.0, 1e2))
@settings(max_examples=20, deadline=None)
def test_axis_extrema_kernel_over_theta(tag, L, rho):
    # a grid of polar angles by radii in one call, row by row as one angle's call
    theta = np.r_[0.0, np.linspace(0.01, math.pi - 0.01, 7), math.pi / 2, math.pi]
    r = np.geomspace(1e-2, 1e5, 23)
    w_max, w_min, argmax = _axis_extrema(tag, theta[:, None], L, rho, r)
    assert w_max.shape == (theta.size, r.size)
    for i, th in enumerate(theta):
        s_max, s_min, s_arg = _axis_extrema(tag, float(th), L, rho, r)
        np.testing.assert_array_equal(w_max[i], s_max)
        np.testing.assert_array_equal(w_min[i], s_min)
        np.testing.assert_array_equal(argmax[i], s_arg)


class TestOneArithmetic:
    """A one-link call gives the bits of its row in a batch call."""

    @pytest.fixture(scope="class")
    def draws(self):
        rng = np.random.default_rng(0)
        return [random_params(rng) for _ in range(20_000)]

    @pytest.mark.parametrize("tag", "zxy")
    def test_extrema_equal_their_batch_row(self, draws, tag):
        theta, L, rho, r = (np.array([getattr(p, name) for p in draws])
                            for name in ("theta", "L", "rho", "r"))
        batch = np.column_stack(_axis_extrema(tag, theta, L, rho, r))
        one = {"z": extrema_z, "x": extrema_x, "y": extrema_y}[tag]
        rows = np.array([(s.w_max, s.w_min, s.argmax_location) for s in map(one, draws)])
        assert np.count_nonzero((rows != batch).any(axis=1)) == 0

    @pytest.mark.parametrize("tag", "zxy")
    def test_form_at_its_argmax_is_w_max(self, draws, tag):
        # the extrema are the pointwise form at the argmax and at the interval
        # ends; only the e_z peak is written out, as 2*dc(L/2, d), which the
        # form meets up to the rounding of its arguments -c + (c +- L/2)
        theta, L, rho, r, d, c = (np.array([getattr(p, name) for p in draws])
                                  for name in ("theta", "L", "rho", "r", "d", "c"))
        lo, hi = np.array([effective_interval(p, getattr(ReceiveDirection, tag)())
                           for p in draws]).T
        w_max, w_min, argmax = _axis_extrema(tag, theta, L, rho, r)
        at_max = axis_bandwidth(tag, argmax, d, c, L)
        peak = (np.abs(c) <= rho) if tag == "z" else np.zeros(len(draws), bool)
        assert np.count_nonzero(at_max[~peak] != w_max[~peak]) == 0
        slack = np.finfo(float).eps * (3.0 + np.abs(c) / L)
        assert np.all(np.abs(at_max - w_max)[peak] <= (slack * w_max)[peak])
        ends = np.minimum(axis_bandwidth(tag, lo, d, c, L), axis_bandwidth(tag, hi, d, c, L))
        assert np.count_nonzero(ends != w_min) == 0


class TestFarFieldFlag:
    """Far-field validity is a property of the assembly; the extrema never warn."""

    def extrema_silently(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            extrema_z(p)

    def test_near_field_below_ten_wavelengths(self):
        p = AssemblyParams(40.0, 2.0, 5.0, math.pi / 2)
        assert not p.far_field
        self.extrema_silently(p)

    def test_silent_at_ten(self):
        p = AssemblyParams(40.0, 2.0, 10.0, math.pi / 2)
        assert p.far_field
        self.extrema_silently(p)
