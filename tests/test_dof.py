import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from losdof import (
    AssemblyParams,
    FarFieldWarning,
    ReceiveDirection,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    k_bounds,
    k_linear,
    k_number,
    k_parallel,
    rz_boresight,
)
from losdof.bandwidth import bandwidth_generic
from losdof._oracle import adaptive_gauss
from losdof.dof import _piece_edges, _reports, k_exact

from helpers import random_params, trapezoid_k

Z = ReceiveDirection.z()
X = ReceiveDirection.x()
Y = ReceiveDirection.y()


class TestKNumber:
    def test_boresight_unit_k(self):
        r = rz_boresight(400.0, 20.0, 1.0)
        p = AssemblyParams(400.0, 20.0, r, math.pi / 2)
        rep = k_number(p, Z)
        assert rep.k_upper == pytest.approx(1.0, abs=1e-10)
        assert rep.k_exact == pytest.approx(1.0, rel=0.01)

    def test_against_trapezoid_oracle(self):
        p = AssemblyParams(400.0, 20.0, 200.0, math.pi / 2)
        rep = k_number(p, Z)
        oracle = trapezoid_k(lambda z: bandwidth_z(z, p), -20.0, 20.0)
        assert rep.k_exact == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize(
        "direction,fn",
        [(X, bandwidth_x), (Y, bandwidth_y)],
        ids=["x", "y"],
    )
    def test_other_directions_vs_oracle(self, direction, fn):
        p = AssemblyParams(400.0, 20.0, 350.0, 1.1)
        rep = k_number(p, direction)
        lo, hi = (0.0, 20.0) if direction.tag == "y" else (-min(p.d, 20.0), 20.0)
        oracle = trapezoid_k(lambda v: fn(v, p), lo, hi, panels=200_000)
        assert rep.k_exact == pytest.approx(oracle, abs=1e-6)

    def test_y_vanishes_with_array_length(self):
        ks = []
        for rho in (8.0, 2.0, 0.5, 0.05):
            p = AssemblyParams(400.0, rho, 300.0, math.pi / 2)
            ks.append(k_number(p, Y).k_exact)
        assert all(b < a for a, b in zip(ks, ks[1:]))
        assert ks[-1] < 1e-4

    def test_sandwich_and_midpoint_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            p = random_params(rng)
            for direction in (X, Y, Z):
                rep = k_number(p, direction)
                slack = 1e-9
                assert rep.k_lower - slack <= rep.k_exact <= rep.k_upper + slack
                assert abs(rep.k_linear - rep.k_exact) <= (
                    (rep.k_upper - rep.k_lower) / 2 + 1e-6
                )
                assert rep.k_linear == pytest.approx(
                    (rep.k_upper + rep.k_lower) / 2, rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize("r, overlap", [(2.0, 8.0), (7.0, 3.0)])
    def test_collinear_overlap_exact(self, r, overlap):
        # e_z array on the source axis, running through a source end: the
        # spread is 2 where the arrays overlap and 0 elsewhere
        rep = k_number(AssemblyParams(10.0, 5.0, r, 0.0), Z)
        assert rep.k_exact == pytest.approx(2.0 * overlap, abs=1e-12)

    def test_generic_matches_axis(self):
        p = AssemblyParams(400.0, 20.0, 700.0, 1.2)
        exact_axis = k_number(p, Z).k_exact
        exact_generic = k_number(p, ReceiveDirection.generic((0, 0, 1))).k_exact
        assert exact_generic == pytest.approx(exact_axis, abs=1e-6)

    def test_generic_direction_reversal(self):
        p = AssemblyParams(400.0, 20.0, 700.0, 1.2)
        v = (math.sin(0.6), 0.0, math.cos(0.6))
        neg = tuple(-c for c in v)
        k1 = k_number(p, ReceiveDirection.generic(v)).k_exact
        k2 = k_number(p, ReceiveDirection.generic(neg)).k_exact
        assert k2 == pytest.approx(k1, abs=1e-6)

    def test_generic_bounds_sandwich(self):
        p = AssemblyParams(400.0, 20.0, 700.0, 1.2)
        rep = k_number(p, ReceiveDirection.generic((math.sin(0.4), 0.0, math.cos(0.4))))
        assert rep.k_lower <= rep.k_exact <= rep.k_upper + 1e-9

    def test_generic_bounds_at_gauss_nodes(self):
        # generic bounds are the extremes of bandwidth_generic at 15
        # Gauss-Legendre nodes of each piece, times the interval length
        rng = np.random.default_rng(21)
        nodes = np.polynomial.legendre.leggauss(15)[0]
        for _ in range(20):
            p = random_params(rng)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            rep = k_number(p, ReceiveDirection.generic(v))
            edges = _piece_edges(p, v, -p.rho, p.rho)
            half = 0.5 * np.diff(edges)[:, None]
            w = bandwidth_generic((edges[:-1, None] + half * (1.0 + nodes)).ravel(), v, p)
            assert rep.k_lower == w.min() * 2.0 * p.rho
            assert rep.k_upper == w.max() * 2.0 * p.rho
            direction = ReceiveDirection.generic(v)
            assert k_bounds(p, direction) == (rep.k_lower, rep.k_upper)
            assert k_linear(p, direction) == rep.k_linear

    @given(L=st.floats(10.0, 1e3), rho=st.floats(1.0, 1e2), r=st.floats(10.0, 1e5),
           theta=st.floats(0.0, math.pi),
           v=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda c: math.hypot(*c) > 0.1))
    @settings(max_examples=60, deadline=None)
    def test_generic_closed_form_property(self, L, rho, r, theta, v):
        p = AssemblyParams(L, rho, r, theta)
        # arrays that stay a wavelength off the source axis or past its ends
        assume(p.d - rho > 1.0 or abs(r * math.cos(theta)) - 0.5 * L - rho > 1.0)
        v = tuple(np.asarray(v) / math.hypot(*v))
        rep = k_number(p, ReceiveDirection.generic(v))
        edges = _piece_edges(p, v, -rho, rho)
        reference, _ = adaptive_gauss(lambda l: bandwidth_generic(l, v, p), -rho, rho,
                                      tol=1e-11, breakpoints=tuple(edges[1:-1]))
        assert rep.k_exact == pytest.approx(reference, abs=1e-9)
        assert rep.k_lower - 1e-9 <= rep.k_exact <= rep.k_upper + 1e-9
        reverse = k_number(p, ReceiveDirection.generic(tuple(-c for c in v)))
        assert reverse.k_exact == pytest.approx(rep.k_exact, abs=1e-9)

    @given(L=st.floats(10.0, 1e3), rho=st.floats(1.0, 1e2), r=st.floats(10.0, 1e5),
           theta=st.floats(0.0, math.pi),
           v=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda c: math.hypot(*c) > 0.1))
    @settings(max_examples=60, deadline=None)
    def test_generic_symmetry_property(self, L, rho, r, theta, v):
        # mirroring the frame in z maps theta to pi - theta and v_z to -v_z;
        # reversing v walks the same receive points with negated frequencies.
        # The stationary pieces difference antiderivatives of size ~r, so a
        # small far-range K is only good to about 1e-16 * r in absolute terms.
        vx, vy, vz = np.asarray(v) / math.hypot(*v)
        k = k_number(AssemblyParams(L, rho, r, theta), ReceiveDirection.generic((vx, vy, vz)))
        mirrored = k_number(AssemblyParams(L, rho, r, math.pi - theta),
                            ReceiveDirection.generic((vx, vy, -vz)))
        reversed_ = k_number(AssemblyParams(L, rho, r, theta),
                             ReceiveDirection.generic((-vx, -vy, -vz)))
        tol = {"rel": 1e-9, "abs": 1e-15 * r}
        assert mirrored.k_exact == pytest.approx(k.k_exact, **tol)
        assert reversed_.k_exact == pytest.approx(k.k_exact, **tol)

    @pytest.mark.parametrize("v", [(0.6, 0.8, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
    def test_broadside_all_zero_quadratic(self, v):
        # theta = pi/2 with v_z = 0: g_lo**2 = g_hi**2 holds along the whole
        # array, every coefficient of the edge quadratic is zero and it adds no edge
        L, rho, r = 400.0, 20.0, 300.0
        p = AssemblyParams(L, rho, r, math.pi / 2)
        k = k_exact(r, 0.0, L, v, -rho, rho)
        reference, _ = adaptive_gauss(lambda l: bandwidth_generic(l, v, p), -rho, rho, tol=1e-12)
        assert k == pytest.approx(reference, abs=1e-9)
        rep = k_number(p, ReceiveDirection.generic(v))
        assert rep.k_exact == pytest.approx(k, abs=1e-12)

    def test_near_zero_leading_coefficient(self):
        # v_x = 0 at theta = pi/2: the l**2 coefficient of the edge equation
        # vanishes but for the rounding of r*cos(pi/2), and its one true root,
        # g_lo = -g_hi at the centre, must stay the only interior edge
        p = AssemblyParams(50.0, 20.0, 60.0, math.pi / 2)
        v = (0.0, 0.6, 0.8)
        edges = _piece_edges(p, v, -20.0, 20.0)
        assert edges.size == 3 and abs(edges[1]) < 1e-9
        reference, _ = adaptive_gauss(lambda l: bandwidth_generic(l, v, p), -20.0, 20.0,
                                      tol=1e-12)
        rep = k_number(p, ReceiveDirection.generic(v))
        assert rep.k_exact == pytest.approx(reference, abs=1e-9)

    def test_batch_matches_single_links(self):
        rng = np.random.default_rng(8)
        links = [random_params(rng) for _ in range(40)]
        vs = rng.normal(size=(40, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        batch = k_exact([p.d for p in links], [p.r * math.cos(p.theta) for p in links],
                        400.0, vs, [-p.rho for p in links], [p.rho for p in links])
        single = [k_exact(p.d, p.r * math.cos(p.theta), 400.0, v, -p.rho, p.rho)
                  for p, v in zip(links, vs)]
        assert batch.shape == (40,)
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_batch_with_a_length_per_link(self):
        rng = np.random.default_rng(9)
        links = [random_params(rng) for _ in range(60)]
        vs = rng.normal(size=(60, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        vs[:3] = np.eye(3)  # axis links among them
        args = [np.array([p.d for p in links]), np.array([p.r * math.cos(p.theta) for p in links]),
                np.array([p.L for p in links]), vs, np.array([-p.rho for p in links]),
                np.array([p.rho for p in links])]
        batch = k_exact(*args)
        single = [k_exact(*link) for link in zip(*args)]
        np.testing.assert_array_equal(batch, single)
        # each row of the report pass is k_number of its link, broadside links among them
        links += [AssemblyParams(p.L, p.rho, p.r, math.pi / 2) for p in links[:6]]
        vs = np.r_[vs, vs[:6]]
        assembly = [np.array([getattr(p, name) for p in links])
                    for name in ("L", "rho", "r", "theta")]
        for tag in ("z", "x", "y", "generic"):
            directions = [ReceiveDirection.generic(v) if tag == "generic" else ReceiveDirection(tag)
                          for v in vs]
            reports = _reports(tag, *assembly, np.array([d.unit_vector for d in directions]))
            for p, direction, row in zip(links, directions, np.transpose(reports)):
                rep = k_number(p, direction)
                np.testing.assert_array_equal(row, [rep.k_exact, rep.k_lower, rep.k_upper,
                                                    rep.k_linear])


class TestBoundsAndLinear:
    def test_boresight_upper_bound_exact(self):
        for K0 in (1.0, 2.5, 3.0):
            r = rz_boresight(400.0, 20.0, K0)
            p = AssemblyParams(400.0, 20.0, r, math.pi / 2)
            _, upper = k_bounds(p, Z)
            assert upper == pytest.approx(K0, abs=1e-9)

    def test_y_lower_bound_zero(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            lower, _ = k_bounds(random_params(rng), Y)
            assert lower == 0.0

    def test_linear_y_formula(self):
        p = AssemblyParams(400.0, 20.0, 150.0, 1.0)
        assert k_linear(p, Y) == pytest.approx(10.0 * bandwidth_y(20.0, p), rel=1e-12)

    def test_linear_z_far_field_limit(self):
        # constant-bandwidth regime: the linear value approaches the upper bound
        p = AssemblyParams(400.0, 20.0, 80000.0, math.pi / 2)
        lower, upper = k_bounds(p, Z)
        assert k_linear(p, Z) == pytest.approx(upper, rel=1e-4)


class TestKParallel:
    def test_frozen_values(self):
        assert k_parallel(400.0, 40.0, 16000.0) == pytest.approx(1.0, abs=1e-15)
        assert k_parallel(10.0, 10.0, 100.0) == pytest.approx(1.0, abs=1e-15)

    def test_homogeneity(self):
        base = k_parallel(400.0, 40.0, 16000.0)
        assert k_parallel(800.0, 80.0, 32000.0) == pytest.approx(2 * base, rel=1e-12)

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            k_parallel(400.0, 40.0, 0.0)

    def test_validity_flag(self):
        with pytest.warns(FarFieldWarning):
            k_parallel(400.0, 40.0, 1000.0)
