import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losdof import (
    AssemblyParams,
    FarFieldWarning,
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
from losdof import regions
from losdof.regions import RESIDUAL_TOL, _bracketed_roots, _descent, _roots

from helpers import reference_excess, reference_radii

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

    def test_small_k0_root_beyond_four_r0(self):
        # the root, about 1.6e6, lies beyond 4*R0 = 64,000, so the scan
        # starts at the bandwidth bound rho + L/2 + L/target instead
        theta, K0 = math.pi / 2, 0.01
        root = smr_boundary("z", theta, L, RHO, K0)
        assert root > 4.0 * r0_threshold(L, RHO).approx
        assert abs(reference_excess("z", "smr", theta, L, RHO, K0)(root)) <= RESIDUAL_TOL
        (expected,) = reference_radii("z", "smr", theta, L, RHO, K0)
        assert root == pytest.approx(expected, rel=1e-12)
        assert root == pytest.approx(rz_boresight(L, RHO, K0), rel=1e-12)


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


CURVES = [("ncsmr", "x"), ("ncsmr", "z"), ("smr", "x"), ("smr", "y"), ("smr", "z")]


@given(
    L=st.floats(20.0, 600.0),
    rho=st.floats(1.0, 30.0),
    threshold=st.floats(0.05, 3.0),
    interior=st.lists(st.floats(0.0, math.pi), max_size=5),
)
@example(L=20.0, rho=2.0, threshold=1.0, interior=[1e-5])
@example(L=205.0, rho=10.0, threshold=1.0, interior=[1.192092896e-07])
@example(L=100.0, rho=19.84877993493015, threshold=2.2091626773873094, interior=[])
@settings(max_examples=10, deadline=None)
def test_curves_match_per_angle_brentq(L, rho, threshold, interior):
    # the array pass against the per-angle scans refined by scipy's brentq,
    # on angle grids that include both endfire directions
    thetas = sorted({0.0, math.pi, *interior})
    for kind, tag in CURVES:
        curve = boundary_curve(tag, kind, thetas, L, rho, threshold)
        for theta, radii in curve.samples:
            expected = reference_radii(tag, kind, theta, L, rho, threshold)
            # Roots agree within 1e-12 (abs: both solvers stop within
            # xtol = 1e-12 of a tiny root).  A root only one side has must be
            # one whose residual moves by more than RESIDUAL_TOL within the
            # solvers' resolution xtol + rtol*r: there the residual check
            # decides by where the last step lands.  Near endfire (L = 20,
            # rho = 2, theta = 1e-5) the e_z excess has slope 480 at its root.
            g = reference_excess(tag, kind, theta, L, rho, threshold)
            for r in _unmatched(radii, expected) + _unmatched(expected, radii):
                step = 1e-12 + 1e-12 * r
                assert abs(g(r + step) - g(r - step)) > RESIDUAL_TOL, (kind, tag, theta, r)


def _unmatched(roots, others):
    return [r for r in roots
            if not any(r == pytest.approx(e, rel=1e-12, abs=2e-12) for e in others)]


class TestBracketedRoots:
    @staticmethod
    def solve(f, a, b, **tol):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        calls = []

        def counted(x, i):
            calls.append(i.size)
            return f(x, i)

        index = np.arange(a.size)
        roots, values = _bracketed_roots(counted, a, b, f(a, index), f(b, index), **tol)
        np.testing.assert_array_equal(values, f(roots, index))
        return roots, calls

    def test_one_call_per_step_serves_every_bracket(self):
        targets = np.linspace(0.5, 80.0, 300)
        roots, calls = self.solve(lambda x, i: x * x - targets[i],
                                  np.zeros(300), np.full(300, 10.0))
        assert roots == pytest.approx(np.sqrt(targets), rel=1e-12)
        assert calls[0] == 300 and len(calls) < 15
        assert calls == sorted(calls, reverse=True)

    def test_root_at_a_bracket_end(self):
        # f(sqrt 2) is 4.4e-16, not 0: the root sits at the end within rounding
        end = math.sqrt(2.0)
        roots, _ = self.solve(lambda x, i: x * x - 2.0, [1.0, end], [end, 1.0])
        assert (np.abs(roots - end) <= 1e-12 * (1.0 + end)).all()

    def test_zero_at_an_endpoint_is_returned_unsolved(self):
        roots, calls = self.solve(lambda x, i: x - 1.0, [1.0, -3.0], [3.0, 1.0])
        assert roots.tolist() == [1.0, 1.0]
        assert calls == []

    def test_nan_inside_a_bracket_is_not_a_root(self):
        def f(x, i):
            return np.where(np.abs(x - 0.5) < 0.1, np.nan, x - 0.5)

        roots, _ = self.solve(f, [0.0], [1.0])
        assert not np.isfinite(roots).any()

    def test_bracket_without_sign_change_is_nan(self):
        roots, calls = self.solve(lambda x, i: x * x + 1.0, [-1.0], [2.0])
        assert np.isnan(roots).all() and calls == []

    def test_empty_input(self):
        roots, calls = self.solve(lambda x, i: x, [], [])
        assert roots.shape == (0,) and calls == []

    @pytest.mark.parametrize("xtol", [1e-12, 1e-6, 1e-2])
    def test_converges_to_xtol(self, xtol):
        # steep and flat functions, whose roots the interpolation finds slowly
        centres = np.array([0.1234567, 3.3, 7.77])

        def f(x, i):
            u = x - centres[i]
            return np.where(i == 0, np.tanh(50.0 * u), np.where(i == 1, u ** 3, u))

        roots, _ = self.solve(f, np.zeros(3), np.full(3, 10.0), xtol=xtol, rtol=1e-12)
        assert (np.abs(roots - centres) <= xtol + 1e-12 * centres).all()


@pytest.mark.parametrize("outermost", [False, True], ids=["all", "outermost"])
class TestRootsDropNaN:
    # a NaN between two scan points of opposite sign makes the bracket's
    # root NaN, and the residual check drops it
    @staticmethod
    def g(theta, r):
        return np.where(np.abs(r - 5.5) < 0.2, np.nan, (r - 5.5) * (r - 8.5) + 0.0 * theta)

    ROW = np.arange(10.0, 0.0, -1.0)

    def test_fixed_grid(self, outermost):
        theta = np.array([0.3, 0.7])
        assert _roots(self.g, theta, self.ROW, outermost) == [(8.5,)] * 2

    def test_descent_grid(self, outermost):
        def g(theta, r):
            return np.where(np.abs(r - 5.5) < 0.2, np.nan, 5.5 - r + 0.0 * theta)

        def solve(fn):
            theta = np.array([0.3])
            return _roots(fn, theta, _descent(100.0), outermost)

        assert solve(g) == [()]
        assert solve(self.g)[0] == pytest.approx((8.5,))

    def test_zero_on_a_scan_point_is_one_root(self, outermost):
        def g(theta, r):
            return r - 8.0 + 0.0 * theta

        assert _roots(g, np.array([0.3]), self.ROW, outermost) == [(8.0,)]


class TestArrayPass:
    """One boundary curve makes a few kernel calls, not a few per angle."""

    THETAS = np.linspace(math.pi / 16, 15 * math.pi / 16, 256)

    @staticmethod
    def count(monkeypatch, tag, kind, thetas):
        calls, steps = [], []
        kernel, solve = regions._axis_extrema, regions._bracketed_roots

        def counted_kernel(tag, d, c, L, rho):
            calls.append(np.broadcast(d, c).size)
            return kernel(tag, d, c, L, rho)

        def counted_solve(f, *args, **kwargs):
            def counted_f(x, i):
                steps.append(i.size)
                return f(x, i)

            return solve(counted_f, *args, **kwargs)

        monkeypatch.setattr(regions, "_axis_extrema", counted_kernel)
        monkeypatch.setattr(regions, "_bracketed_roots", counted_solve)
        boundary_curve(tag, kind, thetas, L, RHO, 1.0)
        assert max(calls) <= regions._SCAN_POINTS
        return len(calls), len(steps)

    @pytest.mark.parametrize("tag", ["x", "y", "z"])
    def test_smr(self, monkeypatch, tag):
        calls, _ = self.count(monkeypatch, tag, "smr", self.THETAS)
        assert calls <= 60

    @pytest.mark.parametrize("tag", ["x", "z"])
    def test_ncsmr_scans_one_angle_per_call(self, monkeypatch, tag):
        calls, steps = self.count(monkeypatch, tag, "ncsmr", self.THETAS[::4])
        assert calls <= 64 + steps + 1
        assert steps <= 20


@pytest.mark.filterwarnings("error")
class TestThetaChecked:
    """A polar angle outside [0, pi] or a grid that does not increase fails before any kernel call."""

    SOLVERS = {
        "smr_boundary": lambda theta: smr_boundary("z", theta, L, RHO, 1.0),
        "smr_boundary_y": lambda theta: smr_boundary_y(theta, L, RHO, 1.0),
        "ncsmr_boundary": lambda theta: ncsmr_boundary("x", theta, L, RHO, 1.0),
        "boundary_curve": lambda theta: boundary_curve("z", "ncsmr", [0.5, theta], L, RHO, 1.0),
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, kernel = [], regions._axis_extrema

        def counted_kernel(tag, d, c, L, rho):
            calls.append(np.broadcast(d, c).size)
            return kernel(tag, d, c, L, rho)

        monkeypatch.setattr(regions, "_axis_extrema", counted_kernel)
        return calls

    @pytest.mark.parametrize("theta", [-1.0, 4.0, math.nan, math.inf])
    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_out_of_range(self, calls, solver, theta):
        with pytest.raises(ValueError) as info:
            self.SOLVERS[solver](np.float64(theta))
        assert str(info.value) == f"theta must lie in [0, pi], got {theta!r}"
        assert calls == []

    @pytest.mark.parametrize("kind", ["smr", "ncsmr"])
    def test_descending_grid(self, calls, kind):
        grid = np.linspace(15 * math.pi / 16, math.pi / 16, 200)
        with pytest.raises(ValueError, match="strictly increasing"):
            boundary_curve("z", kind, grid, L, RHO, 1.0)
        assert calls == []


class TestConcurrency:
    def test_threads_match_serial_and_leave_warning_filters_alone(self):
        thetas = np.linspace(0.0, math.pi, 16)
        jobs = [(tag, kind) for kind, tag in CURVES] * 2

        def curve(job):
            return boundary_curve(job[0], job[1], thetas, L, RHO, 1.0)

        serial = [curve(job) for job in jobs]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(curve, jobs))
            assert warnings.filters == filters
        assert threaded == serial
        # the ncsmr scan starts at r = 1, below the far-field limit of 10
        assert not [w for w in caught if issubclass(w.category, FarFieldWarning)]


PIN_THETAS = np.linspace(0.0, math.pi, 16)
# Boundary radii at L = 400, rho = 20, delta_k = K0 = 1 on PIN_THETAS, as
# the per-radius scalar scans gave them before the grids became array calls;
# kind and tag as in boundary_curve.
PINNED_ROOTS = {
    ("ncsmr", "z"): [
        (),
        (123.54883660581477, 352.6894630920414),
        (104.38280547995802, 470.02715317816023),
        (97.04314295008811, 557.6019502075604),
        (97.58067364512303, 593.2949077790604),
        (107.54818460276587, 556.8956357466394),
        (142.53063834870437, 417.2752927547152),
        (),
        (),
        (142.53063834870437, 417.27529275471517),
        (107.5481846027656, 556.895635746639),
        (97.58067364512283, 593.2949077790606),
        (97.04314295008814, 557.6019502075607),
        (104.38280547995791, 470.0271531781602),
        (123.54883660581486, 352.6894630920414),
        (),
    ],
    ("smr", "z"): [
        (),
        (834.3830706682152,),
        (2724.3369208928166,),
        (5584.29813901811,),
        (8879.04318778583,),
        (12030.342189194453,),
        (14489.905307095612,),
        (15830.21837198569,),
        (15830.218371985682,),
        (14489.9053070956,),
        (12030.342189194449,),
        (8879.043187785826,),
        (5584.298139018147,),
        (2724.336920892805,),
        (834.3830706682219,),
        (),
    ],
    ("ncsmr", "x"): [
        (199.49968710876348, 446.3172876215587),
        (213.66653269562298, 221.43486011100157, 540.7250817375119),
        (254.40260053364491,),
        (321.3387877805952,),
        (375.05542943181626,),
        (351.3818666462191,),
        (301.2094993907446,),
        (262.50815336180824,),
        (262.5081533618084,),
        (301.2094993907441,),
        (351.3818666462198,),
        (375.05542943181706,),
        (321.3387877805957,),
        (254.40260053364497,),
        (213.666532695623, 221.4348601110017, 540.7250817375115),
        (199.49968710876396, 446.3172876215592),
    ],
    ("smr", "x"): [
        (599.4161347196666,),
        (3345.3969066136756,),
        (5973.467869341789,),
        (7610.335551436415,),
        (7971.900135975828,),
        (6951.992038030252,),
        (4727.56756853576,),
        (1674.9824940748142,),
        (1674.982494074809,),
        (4727.56756853576,),
        (6951.992038030257,),
        (7971.900135975805,),
        (7610.335551436431,),
        (5973.467869341805,),
        (3345.3969066136847,),
        (599.4161347196674,),
    ],
    ("smr", "y"): [
        (344.959004118015,),
        (333.38989782339036,),
        (297.0967207287798,),
        (225.21701417099413,),
        (166.48371637297058,),
        (135.26249166696314,),
        (117.40831497089853,),
        (107.29803580760478,),
        (107.29803580760475,),
        (117.40831497089852,),
        (135.26249166696314,),
        (166.4837163729705,),
        (225.21701417099408,),
        (297.09672072877964,),
        (333.38989782339024,),
        (344.959004118015,),
    ],
}


@pytest.mark.parametrize("kind,tag", list(PINNED_ROOTS))
def test_roots_pinned(kind, tag):
    curve = boundary_curve(tag, kind, PIN_THETAS, L, RHO, 1.0)
    for (theta, radii), expected in zip(curve.samples, PINNED_ROOTS[kind, tag]):
        assert len(radii) == len(expected), theta
        assert radii == pytest.approx(expected, rel=1e-12), theta
