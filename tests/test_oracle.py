"""Unit tests of the brute-force oracles: ``scan_extrema``, ``axis_draw_errors``,
``generic_draw_errors`` and ``adaptive_gauss``."""

import math

import numpy as np
import pytest

from losdof import (
    AssemblyParams,
    ReceiveDirection,
    bandwidth_generic,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    extrema,
)
from losdof._oracle import (
    MAX_ZOOMS,
    SCAN_BLOCK,
    ZOOM_POINTS,
    QuadratureError,
    _linspace,
    adaptive_gauss,
    axis_draw_errors,
    generic_draw_errors,
    scan_extrema,
    scan_spread,
)
from losdof.bandwidth import _AXIS_FORMS, _axis_extrema, _spread
from losdof.dof import _reports


class CountingFn:
    """Wraps an array function and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x, *args):
        self.calls += 1
        return self.fn(x, *args)


def test_extrema_at_the_endpoints():
    assert scan_extrema(lambda x: x, 0.0, 2.0) == (0.0, 2.0)
    assert scan_extrema(lambda x: -x, 0.0, 2.0) == (-2.0, 0.0)


def test_constant_function():
    assert scan_extrema(lambda x: np.full_like(x, 3.5), -1.0, 4.0) == (3.5, 3.5)


def test_degenerate_interval():
    value = float(np.cos(1.3))
    assert scan_extrema(np.cos, 1.3, 1.3) == (value, value)


def test_terminates_below_float_spacing():
    # the spacing of floats near 1e6 is 1.2e-10, far above the 1e-12 target
    # width, so the brackets stop shrinking before they get that narrow
    peak = 1e6 + 0.3
    fn = CountingFn(lambda x: -((x - peak) ** 2))
    w_lo, w_hi = scan_extrema(fn, 1e6, 1e6 + 1.0)
    assert fn.calls < 1 + MAX_ZOOMS
    assert w_hi == pytest.approx(0.0, abs=1e-18)
    assert w_lo == pytest.approx(-0.49, abs=1e-9)


def test_a_stopped_bracket_leaves_the_other_zooming():
    # the minimum sits at 1e6, where floats are 1.2e-10 apart, so its bracket
    # stops early; the kinked maximum near 0.3 still refines to 1e-12
    peak = 0.3 + 1e-3 / math.pi
    w_lo, w_hi = scan_extrema(lambda x: -1e3 * np.abs(x - peak), 0.0, 1e6)
    assert w_hi == pytest.approx(0.0, abs=1e-10)
    assert w_lo == pytest.approx(-1e3 * (1e6 - peak), rel=1e-15)


def test_two_extrema_match_refined_dense_scan():
    def fn(x):
        return x * np.exp(-x * x) + 0.1 * x

    xs = np.linspace(-3.0, 3.0, 1_000_001)
    ys = fn(xs)

    def vertex(k):
        # value at the vertex of the parabola through three samples
        a, b, c = ys[k - 1], ys[k], ys[k + 1]
        return b - (c - a) ** 2 / (8.0 * (c - 2.0 * b + a))

    w_lo, w_hi = scan_extrema(fn, -3.0, 3.0)
    assert w_lo == pytest.approx(vertex(ys.argmin()), abs=1e-14)
    assert w_hi == pytest.approx(vertex(ys.argmax()), abs=1e-14)


@pytest.mark.parametrize("samples", [4001, 10001])
def test_narrow_e_x_peak(samples):
    # the near source end lies within ~1e-8 wavelengths of the plane through
    # the receive centre, so the e_x peak is far narrower than the scan's
    # sample spacing
    p = AssemblyParams(16.0546895408464, 95.07419775950626, 76.58530202205982, 1.465787712435039)
    summary = extrema(p, ReceiveDirection.x())
    lo, hi = summary.effective_interval
    w_lo, w_hi = scan_extrema(lambda x: bandwidth_x(x, p), lo, hi, samples)
    assert w_hi == pytest.approx(summary.w_max, abs=1e-12)
    assert w_lo == pytest.approx(summary.w_min, abs=1e-12)


def test_nan_zoom_points_fall_back_to_the_scan():
    def fn(x):
        # NaN at every zoom point, a sine on the dense scan
        return np.full_like(x, np.nan) if x.size == 2 * ZOOM_POINTS else np.sin(x)

    vals = np.sin(np.linspace(0.0, 7.0, 101))
    assert scan_extrema(fn, 0.0, 7.0, samples=101) == (vals.min(), vals.max())


def test_nan_in_the_scan_is_returned():
    w_lo, w_hi = scan_extrema(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)
    assert math.isnan(w_lo) and math.isnan(w_hi)


class TestBatchedScan:
    """Each row of a batched ``scan_extrema`` is its one-row call."""

    @staticmethod
    def fn(x, a, b):
        # a bump of per-row width, centre and height on a sloped base
        return a * np.exp(-((x - b) ** 2) / (0.01 + a * a)) + 0.1 * b * x

    def rows(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(-3.0, 0.0, 40)
        hi = lo + rng.uniform(0.0, 4.0, 40)
        # degenerate and near-float-spacing intervals
        lo[:3] = hi[:3] = [0.0, 1.3, -2.0]
        lo[3:6] = [1e6, -7.0, 0.25]
        hi[3:6] = [np.nextafter(1e6, 2e6), np.nextafter(np.nextafter(-7.0, 0), 0), 0.25 + 1e-14]
        # a step that underflows to zero
        lo[6], hi[6] = 0.0, 1e-321
        return lo, hi, rng.uniform(0.05, 2.0, 40), rng.uniform(-2.0, 2.0, 40)

    def test_each_row_equals_its_one_row_call(self):
        lo, hi, a, b = self.rows()
        w_lo, w_hi = scan_extrema(self.fn, lo, hi, samples=501, args=(a, b))
        for i in range(lo.size):
            one = scan_extrema(lambda x: self.fn(x, a[i], b[i]), lo[i], hi[i], samples=501)
            assert (w_lo[i], w_hi[i]) == one

    def test_nan_rows_behave_as_one_row_calls(self):
        lo, hi, a, b = self.rows()
        nan_scan = np.zeros(lo.size, bool)
        nan_scan[[7, 20]] = True

        def fn(x, a, b, nan_scan):
            values = self.fn(x, a, b)
            # NaN on the dense scan of some rows, and at every zoom point of the others
            at_zoom = x.shape[-1] == 2 * ZOOM_POINTS
            return np.where(nan_scan | (at_zoom & (a > 1.0)), np.nan, values)

        w_lo, w_hi = scan_extrema(fn, lo, hi, samples=501, args=(a, b, nan_scan))
        for i in range(lo.size):
            one = scan_extrema(lambda x: fn(x, a[i], b[i], nan_scan[i]), lo[i], hi[i], samples=501)
            np.testing.assert_array_equal([w_lo[i], w_hi[i]], one)
        assert np.isnan(w_lo[nan_scan]).all() and np.isnan(w_hi[nan_scan]).all()

    @pytest.mark.parametrize("n", [11, 501])
    def test_rows_are_scanned_on_linspace(self, n):
        lo, hi, _, _ = self.rows()
        rng = np.random.default_rng(6)
        lo = np.r_[lo, rng.uniform(-100.0, 100.0, 200)]
        hi = np.r_[hi, lo[40:] + rng.uniform(0.0, 100.0, 200)]
        grid = _linspace(lo, hi, n)
        for i in range(lo.size):
            np.testing.assert_array_equal(grid[i], np.linspace(lo[i], hi[i], n))

    def test_zooms_evaluate_only_open_rows(self):
        lo, hi, a, b = self.rows()
        rows = []

        def fn(x, a, b):
            rows.append(x.shape[0])
            return self.fn(x, a, b)

        scan_extrema(fn, lo, hi, samples=501, args=(a, b))
        zooms = []
        for i in range(lo.size):
            one = CountingFn(lambda x: self.fn(x, a[i], b[i]))
            scan_extrema(one, lo[i], hi[i], samples=501)
            zooms.append(one.calls - 1)
        dense = -(-lo.size // (SCAN_BLOCK // 501))
        # zoom j refines the rows whose one-row call zooms more than j times
        assert rows[dense:] == [sum(z > j for z in zooms) for j in range(max(zooms))]

    def test_one_call_per_zoom_across_all_rows(self):
        lo, hi, a, b = self.rows()
        fn = CountingFn(self.fn)
        scan_extrema(fn, lo, hi, samples=501, args=(a, b))
        zooms = []
        for i in range(lo.size):
            one = CountingFn(lambda x: self.fn(x, a[i], b[i]))
            scan_extrema(one, lo[i], hi[i], samples=501)
            zooms.append(one.calls - 1)
        dense = -(-lo.size // (SCAN_BLOCK // 501))
        assert fn.calls == dense + max(zooms)

    def test_dense_scan_calls_stay_under_the_cap(self):
        sizes = []

        def fn(x):
            sizes.append(x.size)
            return np.sin(x)

        rows = 100
        scan_extrema(fn, np.zeros(rows), np.linspace(1.0, 9.0, rows), samples=4001)
        per_call = SCAN_BLOCK // 4001
        dense = sizes[: -(-rows // per_call)]
        assert max(dense) <= SCAN_BLOCK and sum(dense) == rows * 4001
        assert all(size <= rows * 2 * ZOOM_POINTS for size in sizes[len(dense):])


PARAMS = [AssemblyParams(40.0, 5.0, 300.0, 1.1), AssemblyParams(120.0, 30.0, 95.0, 0.2)]


def checks(forms=_AXIS_FORMS, axis_extrema=_axis_extrema, reports=_reports, samples=4001):
    return axis_draw_errors(PARAMS, forms, axis_extrema, reports, samples=samples, points=11)


def test_axis_draw_errors_pass_on_the_closed_forms():
    extrema_err, sandwich_err, symmetry_err = checks()
    assert extrema_err.shape == sandwich_err.shape == symmetry_err.shape == (2,)
    assert np.all(extrema_err <= 1e-12) and np.all(sandwich_err <= 0.0)
    assert np.all(symmetry_err <= 1e-12)


def nan_extremum(which):
    def axis_extrema(*args):
        w_max, w_min, argmax = _axis_extrema(*args)
        if which == "w_max":
            return np.full_like(w_max, np.nan), w_min, argmax
        return w_max, np.full_like(w_min, np.nan), argmax

    return axis_extrema


@pytest.mark.parametrize("field", ["k_exact", "k_lower", "k_upper"])
def test_nan_k_fails_the_sandwich(field):
    # the sandwich compares the reported fields, (k_exact, k_lower, k_upper, k_linear)
    index = ["k_exact", "k_lower", "k_upper"].index(field)

    def reports(*args):
        fields = list(_reports(*args))
        fields[index] = np.full_like(fields[index], np.nan)
        return tuple(fields)

    _, sandwich_err, _ = checks(reports=reports)
    assert np.all(sandwich_err == math.inf)


def test_nan_extremum_fails_the_extrema_check():
    for which in ("w_max", "w_min"):
        extrema_err, _, _ = checks(axis_extrema=nan_extremum(which))
        assert np.all(extrema_err == math.inf)


def test_nan_bandwidth_fails_the_symmetry_check():
    def nan_y(l, d, c, L):
        return np.full(np.broadcast(l, d).shape, np.nan)

    _, _, symmetry_err = checks(forms={**_AXIS_FORMS, "y": nan_y}, samples=11)
    assert np.all(symmetry_err == math.inf)


class TestGenericDrawErrors:
    L_PROBE = [3.0, 21.0]
    V = [[0.6, 0.0, 0.8], [-0.48, 0.6, 0.64]]

    def test_pass_on_the_closed_form(self):
        errors = generic_draw_errors(PARAMS, self.L_PROBE, self.V, _AXIS_FORMS, _spread, 4001)
        assert errors.shape == (2,) and np.all(errors <= 1e-12)

    def test_equals_the_one_assembly_calls(self):
        errors = generic_draw_errors(PARAMS, self.L_PROBE, self.V, _AXIS_FORMS, _spread, 4001)
        for p, l, v, error in zip(PARAMS, self.L_PROBE, self.V, errors):
            closed = bandwidth_generic(l, v, p)
            worst = max(
                abs(scan_spread(l, v, p, samples=4001) - closed),
                *(abs(bandwidth_generic(l, axis, p) - form(l, p)) for axis, form in (
                    ((0, 0, 1), bandwidth_z), ((1, 0, 0), bandwidth_x), ((0, 1, 0), bandwidth_y))),
            )
            assert error == worst

    def test_nan_spread_fails(self):
        def nan_spread(*args):
            spread, distance = _spread(*args)
            return np.full_like(spread, np.nan), distance

        errors = generic_draw_errors(PARAMS, self.L_PROBE, self.V, _AXIS_FORMS, nan_spread, 4001)
        assert np.all(errors == math.inf)


class TestAdaptiveGauss:
    def test_polynomial_exact(self):
        value, err = adaptive_gauss(lambda x: x ** 4, 0.0, 2.0)
        assert value == pytest.approx(32.0 / 5.0, abs=1e-12)
        assert err <= 1e-8

    def test_kinked_integrand(self):
        value, _ = adaptive_gauss(abs, -1.0, 1.0, breakpoints=(0.0,))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_empty_interval(self):
        assert adaptive_gauss(math.sin, 1.0, 1.0) == (0.0, 0.0)

    def test_depth_limit_carries_partial(self):
        # a discontinuity never satisfies the per-panel budget
        step = lambda x: 0.0 if x < math.sqrt(0.5) else 1.0
        with pytest.raises(QuadratureError) as info:
            adaptive_gauss(step, 0.0, 1.0, tol=1e-14, max_depth=12)
        partial = info.value.partial
        assert partial == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-3)
