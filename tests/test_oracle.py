"""Unit tests of the brute-force oracles: ``scan_extrema``, ``axis_draw_errors`` and
``adaptive_gauss``."""

import math
from dataclasses import replace

import numpy as np
import pytest

from losdof import (
    AssemblyParams,
    ReceiveDirection,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    extrema,
    k_number,
)
from losdof._oracle import (
    MAX_ZOOMS,
    ZOOM_POINTS,
    QuadratureError,
    adaptive_gauss,
    axis_draw_errors,
    scan_extrema,
)


class CountingFn:
    """Wraps an array function and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


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


POINTWISE = {"z": bandwidth_z, "x": bandwidth_x, "y": bandwidth_y}
PARAMS = AssemblyParams(40.0, 5.0, 300.0, 1.1)


@pytest.mark.filterwarnings("ignore::losdof.FarFieldWarning")
def test_axis_draw_errors_pass_on_the_closed_forms():
    extrema_err, sandwich_err, symmetry_err = axis_draw_errors(
        PARAMS, POINTWISE, extrema, k_number, samples=4001, points=11
    )
    assert extrema_err <= 1e-12 and sandwich_err <= 0.0 and symmetry_err <= 1e-12


@pytest.mark.filterwarnings("ignore::losdof.FarFieldWarning")
@pytest.mark.parametrize("field", ["k_exact", "k_lower", "k_upper"])
def test_nan_k_fails_the_sandwich(field):
    def nan_k(params, direction):
        return replace(k_number(params, direction), **{field: math.nan})

    _, sandwich_err, _ = axis_draw_errors(
        PARAMS, POINTWISE, extrema, nan_k, samples=4001, points=11
    )
    assert sandwich_err == math.inf


@pytest.mark.filterwarnings("ignore::losdof.FarFieldWarning")
def test_nan_extremum_fails_the_extrema_check():
    def nan_max(params, direction):
        return replace(extrema(params, direction), w_max=math.nan)

    extrema_err, _, _ = axis_draw_errors(
        PARAMS, POINTWISE, nan_max, k_number, samples=4001, points=11
    )
    assert extrema_err == math.inf


@pytest.mark.filterwarnings("ignore::losdof.FarFieldWarning")
def test_nan_bandwidth_fails_the_symmetry_check():
    def nan_y(l, params):
        return np.full_like(np.asarray(l, dtype=float), np.nan)

    _, _, symmetry_err = axis_draw_errors(
        PARAMS, {**POINTWISE, "y": nan_y}, extrema, k_number, samples=11, points=11
    )
    assert symmetry_err == math.inf


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
