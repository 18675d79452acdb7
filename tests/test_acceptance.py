"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in this file.
"""

import math

import numpy as np
import pytest

from losdof import (
    AssemblyParams,
    ChannelSpec,
    ReceiveDirection,
    ScenePlacement,
    arctan_star,
    build_channel,
    horizontal_scene_to_local,
    k_number,
    ncsmr_boundary,
    normalized_spectrum,
    phi_policy_gamma,
    phi_policy_h,
    r0_threshold,
    rz_boresight,
    singular_spectrum,
    smr_boundary,
    usable_count,
    vertical_scene_to_local,
)
from losdof.bandwidth import _AXIS_FORMS, _axis_extrema
from losdof.dof import k_exact

from helpers import axis_draw_errors, random_params

L, RHO = 400.0, 20.0
R0_APPROX = 16000.0

Z = ReceiveDirection.z()
X = ReceiveDirection.x()
Y = ReceiveDirection.y()


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_r0_reproduction():
    r0 = r0_threshold(L, RHO)
    ok = r0.approx == 16000.0 and abs(r0.exact - 15998.75) <= 1e-2
    assert report(1, "R0 thresholds", ok, f"approx={r0.approx}, exact={r0.exact:.5f}")


def _exact_k_boundary(direction, theta: float, K0: float = 1.0) -> float:
    # root of k_number(r) = K0 by bisection on r
    def g(r: float) -> float:
        return k_number(AssemblyParams(L, RHO, r, theta), direction).k_exact - K0

    hi = 4.0 * R0_APPROX
    while g(hi) > 0:
        hi *= 4.0
    lo = hi
    while g(lo) < 0:
        lo /= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("tag", ["x", "z"])
def test_criterion_2_boundary_consistency(tag):
    # Known red for z: near the endfire edges of the grid the bandwidth
    # varies ~15% across the array, so the constant-bandwidth boundary
    # genuinely overshoots the exact K=1 radius by up to ~6.7% (8/64 points
    # over the 3% bound; 0.34% on the r/R0 figure scale).  The bound is
    # kept at its stated value.
    direction = {"x": X, "z": Z}[tag]
    grid = np.linspace(math.pi / 16.0, 15.0 * math.pi / 16.0, 64)
    rels = []
    for theta in grid:
        approx = smr_boundary(tag, theta, L, RHO, 1.0)
        exact = _exact_k_boundary(direction, theta)
        rels.append(abs(approx - exact) / exact)
    rels = np.asarray(rels)
    worst = float(rels.max())
    over = int((rels > 0.03).sum())
    ok = worst <= 0.03
    assert report(
        2,
        f"boundary consistency ({tag})",
        ok,
        f"worst rel={worst:.4f} at theta={grid[rels.argmax()]:.4f}, points over 3%: {over}/64",
    )


def test_criterion_3_x_direction_peak():
    root = smr_boundary("x", math.pi / 4.0, L, RHO, 1.0)
    ratio = root / R0_APPROX
    ok = 0.4 <= ratio <= 0.6
    assert report(3, "x-boundary peak near quarter turn", ok, f"r={root:.1f}, r/R0={ratio:.4f}")


def test_criterion_4_ncsmr_extent():
    detail = []
    ok = True
    for tag in ("z", "x"):
        largest = 0.0
        for theta in np.linspace(math.pi / 64.0, 63.0 * math.pi / 64.0, 64):
            roots = ncsmr_boundary(tag, theta, L, RHO, 1.0)
            if roots:
                largest = max(largest, roots[-1])
        ok = ok and 450.0 <= largest <= 750.0
        detail.append(f"{tag}: {largest:.1f}")
    assert report(4, "non-constant-bandwidth extent", ok, ", ".join(detail))


def test_criterion_5_linear_approximation_error():
    rs = np.linspace(200.0, 1000.0, 64)
    thetas = np.linspace(math.pi / 8.0, 7.0 * math.pi / 8.0, 64)
    details = []
    ok = True
    for tag, direction in (("z", Z), ("x", X), ("y", Y)):
        errs = np.empty((64, 64))
        for i, r in enumerate(rs):
            for j, theta in enumerate(thetas):
                rep = k_number(AssemblyParams(L, RHO, r, theta), direction)
                errs[i, j] = abs(rep.k_linear - rep.k_exact)
        frac = float((errs <= 0.3).mean())
        if tag == "y":
            ok = ok and bool(np.all(errs <= 0.3))
            details.append(f"y: max={errs.max():.3f}")
        else:
            ok = ok and frac >= 0.95
            details.append(f"{tag}: {100 * frac:.1f}% within 0.3")
    assert report(5, "linear approximation error", ok, ", ".join(details))


def test_criterion_6_singular_spectrum():
    spectra = {}
    for a in (1.0, 0.5):
        params = AssemblyParams(L, RHO, a * R0_APPROX, math.pi / 2.0)
        H = build_channel(ChannelSpec(params, Z, 0.5, 0.5))
        spectra[a] = singular_spectrum(H)
    ratio = normalized_spectrum(spectra[1.0], "max")[1]
    usable = usable_count(spectra[0.5], 0.3)
    ok = 0.5 < ratio < 0.65 and usable == 3
    assert report(
        6, "singular spectrum vs distance", ok,
        f"sigma2/sigma1 at a=1: {ratio:.4f}, usable at a=0.5: {usable}",
    )


def test_criterion_7_nyquist_flattening():
    r3 = rz_boresight(L, RHO, 3.0)
    params = AssemblyParams(L, RHO, r3, math.pi / 2.0)
    nyquist = normalized_spectrum(
        singular_spectrum(build_channel(ChannelSpec(params, Z, 0.5, 40.0 / 3.0))), "max"
    )
    oversampled = normalized_spectrum(
        singular_spectrum(build_channel(ChannelSpec(params, Z, 0.5, 0.5))), "max"
    )
    ok = (
        len(nyquist) == 4
        and bool(np.all(nyquist >= 0.9))
        and oversampled[3] >= 0.3
        and oversampled[7] <= 0.05
    )
    assert report(
        7, "Nyquist spacing flattening", ok,
        f"min of 4 Nyquist values: {nyquist.min():.4f}, "
        f"sigma4/sigma1={oversampled[3]:.4f}, sigma8/sigma1={oversampled[7]:.4f}",
    )


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2024)
    draws = [random_params(rng) for _ in range(500)]
    extrema_err, sandwich_err, symmetry_err = axis_draw_errors(
        draws, _AXIS_FORMS, _axis_extrema, k_exact, samples=10001, points=9
    )
    worst_extrema = float(extrema_err.max())
    sandwich_ok = bool(np.all(sandwich_err <= 0.0))
    worst_symmetry = float(symmetry_err.max())
    ok = worst_extrema <= 1e-8 and sandwich_ok and worst_symmetry <= 1e-12
    assert report(
        8, "oracle equivalence over 500 draws", ok,
        f"extrema err={worst_extrema:.2e}, sandwich={'ok' if sandwich_ok else 'BROKEN'}, "
        f"symmetry={worst_symmetry:.2e}",
    )


def _scenario_k(scene: ScenePlacement, x: float, y: float, phi: float) -> float:
    transform = (
        vertical_scene_to_local if scene.mode == "vertical" else horizontal_scene_to_local
    )
    frame = transform(
        ScenePlacement(scene.mode, scene.source_length, scene.source_height,
                       (x, y), scene.receive_length),
        phi,
    )
    return k_number(frame.params, frame.direction).k_exact


def test_criterion_9_scenario_invariances():
    vertical = ScenePlacement("vertical", L, 400.0, (0.0, 0.0), 40.0)
    radius = 500.0
    ks = []
    for t in np.linspace(0.0, math.pi, 32):
        x, y = radius * math.cos(t), radius * math.sin(t)
        ks.append(_scenario_k(vertical, x, y, phi_policy_gamma((x, y))))
    spread = max(ks) - min(ks)

    horizontal = ScenePlacement("horizontal", L, 200.0, (0.0, 0.0), 40.0)
    points = []
    for rad in (700.0, 900.0, 1100.0, 1300.0):
        for ang in np.linspace(0.1, math.pi - 0.1, 10):
            x, y = rad * math.cos(ang), rad * math.sin(ang)
            if abs(x) <= L / 2.0:  # need r|cos(theta)| = |x| > L/2
                continue
            r2 = math.hypot(y, 200.0)
            theta = arctan_star(r2 / x)
            r = math.hypot(x, r2)
            limit = 0.0
            for tag in ("z", "x"):
                roots = ncsmr_boundary(tag, theta, L, RHO, 1.0)
                if roots:
                    limit = max(limit, roots[-1])
            if r > limit:
                points.append((x, y))
            if len(points) == 20:
                break
        if len(points) == 20:
            break
    assert len(points) == 20
    worst_gap = -math.inf
    for x, y in points:
        k_controlled = _scenario_k(horizontal, x, y, phi_policy_h((x, y), horizontal))
        k_scan = max(
            _scenario_k(horizontal, x, y, phi) for phi in np.linspace(0.0, math.pi, 64)
        )
        worst_gap = max(worst_gap, k_scan - k_controlled)
    ok = spread <= 1e-3 and worst_gap <= 0.05
    assert report(
        9, "scenario invariances", ok,
        f"circle spread={spread:.2e}, worst scan gap={worst_gap:.4f}",
    )
