"""Command-line front end.

Subcommands expose every computation with CSV/JSON output:

* ``bandwidth-profile`` - tabulate the pointwise bandwidth along one axis.
* ``k-number``          - exact K number with bounds, as JSON.
* ``region-boundary``   - multiplexing / non-constant-bandwidth boundary curves.
* ``channel-svd``       - singular spectrum of the discretised channel.
* ``scenario-map``      - K-number coverage map for an elevated source.
* ``verify``            - randomized self-check of closed forms against
                          brute-force oracles.

All CSV output uses ``.`` decimals, ``\\n`` newlines, UTF-8 and always a
header row.  Exit codes: 0 success, 2 argument error, 3 numerical failure.

Every flag can also be supplied through a JSON config file (``--config``)
whose keys are the long option names with underscores; explicit flags win
over config values.  Lengths are in wavelengths unless ``--wavelength``
supplies the wavelength in metres, in which case all length-like inputs are
read as metres and length-like outputs are written back in metres.  Angles
are radians unless ``--degrees`` is given (outputs stay in radians).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from ._oracle import random_params, scan_extrema, scan_spread
from .bandwidth import (
    FarFieldWarning,
    bandwidth_generic,
    bandwidth_x,
    bandwidth_y,
    bandwidth_z,
    effective_interval,
    extrema,
)
from .channel import (
    ChannelSpec,
    build_channel,
    channel_to_csv,
    normalized_spectrum,
    singular_spectrum,
    usable_count,
)
from .dof import QuadratureError, k_number
from .geometry import AssemblyParams, ReceiveDirection, ScenePlacement
from .regions import boundary_curve
from .scenarios import GroundGrid, k_map, kmap_rows

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_NUMERIC = 3

_DIRECTIONS = {
    "x": ReceiveDirection.x,
    "y": ReceiveDirection.y,
    "z": ReceiveDirection.z,
}


def _opt(args, config: dict, key: str, default=None, required: bool = False):
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if value is None and required:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return value


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("config file must contain a JSON object")
    return config


def _angle(value, degrees: bool) -> float:
    value = float(value)
    return math.radians(value) if degrees else value


def _angle_opt(args, config, key: str, default_radians: float, degrees: bool) -> float:
    raw = _opt(args, config, key)
    if raw is None:
        return default_radians
    return _angle(raw, degrees)


def _length_opt(args, config, scaler, key: str, default_wavelengths=None, required=False):
    raw = _opt(args, config, key)
    if raw is None:
        if required and default_wavelengths is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return default_wavelengths
    return scaler.length_in(raw)


class _Scaler:
    """Metre <-> wavelength conversion when --wavelength is given."""

    def __init__(self, wavelength):
        self.wavelength = float(wavelength) if wavelength else None
        if self.wavelength is not None and self.wavelength <= 0:
            raise ValueError("wavelength must be positive")

    def length_in(self, value: float) -> float:
        return float(value) / self.wavelength if self.wavelength else float(value)

    def length_out(self, value: float) -> float:
        return float(value) * self.wavelength if self.wavelength else float(value)

    def freq_out(self, value: float) -> float:
        # bandwidth: cycles per wavelength -> cycles per metre
        return float(value) / self.wavelength if self.wavelength else float(value)


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _write_csv(path, header: str, rows) -> None:
    fh, close = _open_out(path)
    try:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")
    finally:
        if close:
            fh.close()


def _write_json(path, payload: dict) -> None:
    fh, close = _open_out(path)
    try:
        fh.write(json.dumps(payload, indent=2) + "\n")
    finally:
        if close:
            fh.close()


def _assembly(args, config, scaler, degrees) -> AssemblyParams:
    L = scaler.length_in(_opt(args, config, "source_length", required=True))
    rho = scaler.length_in(_opt(args, config, "rho", required=True))
    r = scaler.length_in(_opt(args, config, "distance", required=True))
    theta = _angle_opt(args, config, "theta", 0.5 * math.pi, degrees)
    return AssemblyParams(L, rho, r, theta)


def cmd_bandwidth_profile(args) -> int:
    config = _load_config(args)
    scaler = _Scaler(_opt(args, config, "wavelength"))
    degrees = bool(_opt(args, config, "degrees", default=False))
    params = _assembly(args, config, scaler, degrees)
    tag = _opt(args, config, "direction", required=True)
    if tag not in _DIRECTIONS:
        raise ValueError(f"direction must be one of x, y, z; got {tag!r}")
    direction = _DIRECTIONS[tag]()
    samples = int(_opt(args, config, "samples", default=201))
    if samples < 2:
        raise ValueError("samples must be at least 2")
    lo, hi = effective_interval(params, direction)
    ls = np.linspace(lo, hi, samples)
    fn = {"x": bandwidth_x, "y": bandwidth_y, "z": bandwidth_z}[tag]
    ws = np.asarray(fn(ls, params), dtype=float)
    rows = ((scaler.length_out(l), scaler.freq_out(w)) for l, w in zip(ls, ws))
    _write_csv(_opt(args, config, "output"), "l,w", rows)
    return EXIT_OK


def _parse_v_hat(text) -> tuple[float, float, float]:
    parts = [float(p) for p in str(text).split(",")]
    if len(parts) != 3:
        raise ValueError("v-hat must be three comma-separated components")
    return tuple(parts)


def cmd_k_number(args) -> int:
    config = _load_config(args)
    scaler = _Scaler(_opt(args, config, "wavelength"))
    degrees = bool(_opt(args, config, "degrees", default=False))
    params = _assembly(args, config, scaler, degrees)
    tag = _opt(args, config, "direction", required=True)
    if tag in _DIRECTIONS:
        direction = _DIRECTIONS[tag]()
    elif tag == "generic":
        v_hat = _parse_v_hat(_opt(args, config, "v_hat", required=True))
        direction = ReceiveDirection.generic(v_hat)
        params = params.with_v_hat(v_hat)
    else:
        raise ValueError(f"direction must be x, y, z or generic; got {tag!r}")
    tol = float(_opt(args, config, "tol", default=1e-8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = k_number(params, direction, tol=tol)
    notes = sorted({str(w.message) for w in caught if issubclass(w.category, FarFieldWarning)})
    payload = {
        "k_exact": report.k_exact,
        "k_upper": report.k_upper,
        "k_lower": report.k_lower,
        "k_linear": report.k_linear,
        "quadrature_abs_err": report.quadrature_abs_err,
        "warnings": notes,
    }
    _write_json(_opt(args, config, "output"), payload)
    return EXIT_OK


def cmd_region_boundary(args) -> int:
    config = _load_config(args)
    scaler = _Scaler(_opt(args, config, "wavelength"))
    degrees = bool(_opt(args, config, "degrees", default=False))
    L = scaler.length_in(_opt(args, config, "source_length", required=True))
    rho = scaler.length_in(_opt(args, config, "rho", required=True))
    tag = _opt(args, config, "direction", required=True)
    kind = _opt(args, config, "kind", default="smr")
    threshold = float(_opt(args, config, "threshold", default=1.0))
    theta_min = _angle_opt(args, config, "theta_min", math.pi / 16.0, degrees)
    theta_max = _angle_opt(args, config, "theta_max", 15.0 * math.pi / 16.0, degrees)
    steps = int(_opt(args, config, "theta_steps", default=64))
    grid = np.linspace(theta_min, theta_max, steps)
    curve = boundary_curve(tag, kind, grid, L, rho, threshold)
    rows = []
    for theta, radii in curve.samples:
        for index, radius in enumerate(radii):
            rows.append((float(theta), scaler.length_out(radius), index))
    _write_csv(_opt(args, config, "output"), "theta,radius,root_index", rows)
    return EXIT_OK


def cmd_channel_svd(args) -> int:
    config = _load_config(args)
    scaler = _Scaler(_opt(args, config, "wavelength"))
    degrees = bool(_opt(args, config, "degrees", default=False))
    params = _assembly(args, config, scaler, degrees)
    tag = _opt(args, config, "direction", default="z")
    if tag not in _DIRECTIONS:
        raise ValueError(f"direction must be one of x, y, z; got {tag!r}")
    delta_s = scaler.length_in(_opt(args, config, "delta_s", required=True))
    delta_r = scaler.length_in(_opt(args, config, "delta_r", required=True))
    threshold = float(_opt(args, config, "threshold", default=0.3))
    output = _opt(args, config, "output", required=True)
    spec = ChannelSpec(params, _DIRECTIONS[tag](), delta_s, delta_r)
    H = build_channel(spec)
    matrix_csv = _opt(args, config, "matrix_csv")
    if matrix_csv:
        channel_to_csv(H, matrix_csv)
    spectrum = singular_spectrum(H)
    maxnorm = normalized_spectrum(spectrum, "max")
    sumnorm = normalized_spectrum(spectrum, "sum")
    rows = (
        (i, float(s), float(mn), float(sn))
        for i, (s, mn, sn) in enumerate(zip(spectrum.sigmas, maxnorm, sumnorm))
    )
    _write_csv(output, "index,sigma,sigma_maxnorm,sigma_sumnorm", rows)
    sidecar = {
        "n_t": spec.n_tx,
        "n_r": spec.n_rx,
        "usable_count": usable_count(spectrum, threshold),
    }
    _write_json(_sidecar_path(output), sidecar)
    return EXIT_OK


def _sidecar_path(output: str) -> str:
    if output.endswith(".csv"):
        return output[: -len(".csv")] + ".json"
    return output + ".json"


def cmd_scenario_map(args) -> int:
    config = _load_config(args)
    scaler = _Scaler(_opt(args, config, "wavelength"))
    degrees = bool(_opt(args, config, "degrees", default=False))
    mode = _opt(args, config, "mode", required=True)
    scene = ScenePlacement(
        mode,
        scaler.length_in(_opt(args, config, "source_length", required=True)),
        scaler.length_in(_opt(args, config, "source_height", required=True)),
        (0.0, 0.0),
        scaler.length_in(_opt(args, config, "receive_length", required=True)),
    )
    policy_name = _opt(args, config, "policy", default="fixed")
    if policy_name == "fixed":
        policy = _angle_opt(args, config, "phi", 0.0, degrees)
    elif policy_name in ("gamma", "hcontrol"):
        policy = policy_name
    else:
        raise ValueError(f"policy must be fixed, gamma or hcontrol; got {policy_name!r}")
    grid = GroundGrid(
        (
            _length_opt(args, config, scaler, "x_min", default_wavelengths=-1000.0),
            _length_opt(args, config, scaler, "x_max", default_wavelengths=1000.0),
            int(_opt(args, config, "x_steps", default=41)),
        ),
        (
            _length_opt(args, config, scaler, "y_min", default_wavelengths=0.0),
            _length_opt(args, config, scaler, "y_max", default_wavelengths=1000.0),
            int(_opt(args, config, "y_steps", default=21)),
        ),
    )
    tol = float(_opt(args, config, "tol", default=1e-6))
    cutoff = _opt(args, config, "cutoff")
    cutoff = float(cutoff) if cutoff is not None else None
    workers = int(_opt(args, config, "threads", default=1))
    output = _opt(args, config, "output", required=True)
    result = k_map(scene, policy, grid, tol=tol, cutoff=cutoff, workers=workers)
    rows = (
        (scaler.length_out(x), scaler.length_out(y), k) for x, y, k in kmap_rows(result)
    )
    _write_csv(output, "x,y,k", rows)
    envelope = {
        "scene": {
            "mode": scene.mode,
            "source_length": scene.source_length,
            "source_height": scene.source_height,
            "receive_length": scene.receive_length,
        },
        "policy": result.policy,
        "grid": {
            "x_range": list(grid.x_range),
            "y_range": list(grid.y_range),
        },
        "cutoff": result.cutoff,
        "lengths_in_wavelengths": True,
        "rows": int(grid.x_range[2] * grid.y_range[2]),
    }
    _write_json(_sidecar_path(output), envelope)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: randomized self-check of the closed forms against brute oracles


def cmd_verify(args) -> int:
    config = _load_config(args)
    draws = int(_opt(args, config, "draws", default=100))
    seed = int(_opt(args, config, "seed", default=0))
    rng = np.random.default_rng(seed)
    pointwise = {"x": bandwidth_x, "y": bandwidth_y, "z": bandwidth_z}

    worst_extrema = 0.0
    worst_sandwich = 0.0
    worst_symmetry = 0.0
    worst_generic = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FarFieldWarning)
        for _ in range(draws):
            params = random_params(rng)
            mirrored = AssemblyParams(params.L, params.rho, params.r, math.pi - params.theta)
            for tag in ("x", "y", "z"):
                direction = _DIRECTIONS[tag]()
                summary = extrema(params, direction)
                lo, hi = summary.effective_interval
                fn = pointwise[tag]
                s_lo, s_hi = scan_extrema(lambda v: fn(v, params), lo, hi, samples=4001)
                worst_extrema = max(
                    worst_extrema, abs(s_hi - summary.w_max), abs(s_lo - summary.w_min)
                )
                report = k_number(params, direction)
                slack = report.quadrature_abs_err + 1e-9
                worst_sandwich = max(
                    worst_sandwich,
                    report.k_lower - report.k_exact - slack,
                    report.k_exact - report.k_upper - slack,
                )
            # identities are exact up to round-off; the compared values are
            # differences of unit-bounded direction cosines, so reference
            # the relative measure to that unit scale
            zs = np.linspace(-params.rho, params.rho, 11)
            w_plus = np.asarray(bandwidth_z(zs, params))
            w_minus = np.asarray(bandwidth_z(-zs, mirrored))
            scale = np.maximum(np.abs(w_plus), 1.0)
            worst_symmetry = max(worst_symmetry, float(np.max(np.abs(w_plus - w_minus) / scale)))
            xs = np.linspace(-min(params.d, params.rho), params.rho, 11)
            wx1 = np.asarray(bandwidth_x(xs, params))
            wx2 = np.asarray(bandwidth_x(xs, mirrored))
            scale = np.maximum(np.abs(wx1), 1.0)
            worst_symmetry = max(worst_symmetry, float(np.max(np.abs(wx1 - wx2) / scale)))
            ys = np.linspace(0.0, params.rho, 7)[1:]
            wy1 = np.asarray(bandwidth_y(ys, params))
            wy2 = np.asarray(bandwidth_y(-ys, params))
            scale = np.maximum(np.abs(wy1), 1.0)
            worst_symmetry = max(worst_symmetry, float(np.max(np.abs(wy1 - wy2) / scale)))
            l_probe = float(rng.uniform(0.1, 1.0)) * params.rho
            for tag, v in (("z", (0, 0, 1)), ("x", (1, 0, 0)), ("y", (0, 1, 0))):
                closed = float(pointwise[tag](l_probe, params))
                brute = bandwidth_generic(l_probe, v, params)
                worst_generic = max(worst_generic, abs(brute - closed))
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            closed = bandwidth_generic(l_probe, v, params)
            brute = scan_spread(l_probe, v, params, samples=4001)
            worst_generic = max(worst_generic, abs(brute - closed))

    checks = [
        ("closed-form extrema vs dense-scan oracle", worst_extrema, 1e-8),
        ("k_lower <= k_exact <= k_upper sandwich", worst_sandwich, 0.0),
        ("bandwidth symmetry identities (relative)", worst_symmetry, 1e-12),
        ("generic-direction evaluator vs axis closed forms and scan", worst_generic, 1e-9),
    ]
    failed = False
    for name, worst, bound in checks:
        ok = worst <= bound
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: worst {worst:.3e} (bound {bound:.0e})")
    return EXIT_NUMERIC if failed else EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file supplying defaults for any option")
    parser.add_argument("--wavelength", type=float,
                        help="wavelength in metres; lengths are then read/written in metres")
    parser.add_argument("--degrees", action="store_const", const=True, default=None,
                        help="interpret input angles as degrees")
    parser.add_argument("--output", "-o", help="output path (default: stdout)")


def _add_assembly(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source-length", "-L", dest="source_length", type=float,
                        help="source array length")
    parser.add_argument("--rho", type=float, help="receive array half-length")
    parser.add_argument("--distance", "-r", dest="distance", type=float,
                        help="centre-to-centre distance")
    parser.add_argument("--theta", type=float, help="polar angle (default pi/2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losdof",
        description="Spatial bandwidth and degrees-of-freedom analysis "
                    "for line-of-sight links between linear arrays.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bandwidth-profile", help="tabulate w(l) over the effective interval")
    _add_common(p)
    _add_assembly(p)
    p.add_argument("--direction", choices=("x", "y", "z"))
    p.add_argument("--samples", type=int, help="number of rows (default 201)")
    p.set_defaults(func=cmd_bandwidth_profile)

    p = sub.add_parser("k-number", help="exact K number with bounds (JSON)")
    _add_common(p)
    _add_assembly(p)
    p.add_argument("--direction", choices=("x", "y", "z", "generic"))
    p.add_argument("--v-hat", dest="v_hat",
                   help="comma-separated unit vector for --direction generic")
    p.add_argument("--tol", type=float, help="quadrature absolute tolerance (default 1e-8)")
    p.set_defaults(func=cmd_k_number)

    p = sub.add_parser("region-boundary", help="boundary radii per polar angle (CSV)")
    _add_common(p)
    p.add_argument("--source-length", "-L", dest="source_length", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--direction", choices=("x", "y", "z"))
    p.add_argument("--kind", choices=("smr", "ncsmr"),
                   help="multiplexing or non-constant-bandwidth boundary (default smr)")
    p.add_argument("--threshold", type=float,
                   help="K0 for smr curves, delta-K for ncsmr curves (default 1)")
    p.add_argument("--theta-min", dest="theta_min", type=float)
    p.add_argument("--theta-max", dest="theta_max", type=float)
    p.add_argument("--theta-steps", dest="theta_steps", type=int)
    p.set_defaults(func=cmd_region_boundary)

    p = sub.add_parser("channel-svd", help="singular spectrum of the sampled channel")
    _add_common(p)
    _add_assembly(p)
    p.add_argument("--direction", choices=("x", "y", "z"))
    p.add_argument("--delta-s", dest="delta_s", type=float, help="source antenna spacing")
    p.add_argument("--delta-r", dest="delta_r", type=float, help="receive antenna spacing")
    p.add_argument("--threshold", type=float, help="usability threshold (default 0.3)")
    p.add_argument("--matrix-csv", dest="matrix_csv",
                   help="also export the raw channel matrix to this CSV path")
    p.set_defaults(func=cmd_channel_svd)

    p = sub.add_parser("scenario-map", help="K-number map over the ground plane")
    _add_common(p)
    p.add_argument("--mode", choices=("vertical", "horizontal"))
    p.add_argument("--source-length", "-L", dest="source_length", type=float)
    p.add_argument("--source-height", dest="source_height", type=float)
    p.add_argument("--receive-length", dest="receive_length", type=float)
    p.add_argument("--policy", choices=("fixed", "gamma", "hcontrol"))
    p.add_argument("--phi", type=float, help="orientation angle for --policy fixed")
    p.add_argument("--x-min", dest="x_min", type=float,
                   help="grid x minimum (default -1000 wavelengths)")
    p.add_argument("--x-max", dest="x_max", type=float,
                   help="grid x maximum (default 1000 wavelengths)")
    p.add_argument("--x-steps", dest="x_steps", type=int)
    p.add_argument("--y-min", dest="y_min", type=float,
                   help="grid y minimum (default 0)")
    p.add_argument("--y-max", dest="y_max", type=float,
                   help="grid y maximum (default 1000 wavelengths)")
    p.add_argument("--y-steps", dest="y_steps", type=int)
    p.add_argument("--tol", type=float, help="per-point quadrature tolerance (default 1e-6)")
    p.add_argument("--cutoff", type=float, help="display cutoff recorded in the metadata")
    p.add_argument("--threads", type=int, help="worker processes (default 1)")
    p.set_defaults(func=cmd_scenario_map)

    p = sub.add_parser("verify", help="randomized oracle self-check")
    p.add_argument("--config", help="JSON file supplying defaults for any option")
    p.add_argument("--draws", type=int, help="number of random geometries (default 100)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.set_defaults(func=cmd_verify)

    return parser


def _attach_v_hat(argv) -> list:
    # argparse takes a value that starts with "-" but is not a plain number,
    # such as "-0.6,0,0.8", for an option; the "--v-hat=VALUE" form is not.
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--v-hat":
            token = f"--v-hat={next(tokens, '')}"
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_v_hat(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
