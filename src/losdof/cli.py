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
header row.  Exit codes: 0 success, 2 argument error, 3 a ``verify`` check
failed.

Every option is declared once, in ``COMMANDS``, and can also be supplied
through a JSON config file (``--config``) whose keys are the long option
names with underscores; explicit flags win over config values, which are
typed, checked and converted exactly like flags.  Lengths are in wavelengths unless ``--wavelength``
supplies the wavelength in metres, in which case all length-like inputs are
read as metres and length-like outputs are written back in metres.  Angles
are radians unless ``--degrees`` is given (outputs stay in radians).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from ._output import write_csv, write_json
from ._oracle import axis_draw_errors, generic_draw_errors, random_params, worst_error
from .bandwidth import (  # bandwidth_generic and extrema unused; bench/tracing.py patches them here
    _AXIS_FORMS,
    _axis_extrema,
    _spread,
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
from .dof import _reports, k_number
from .geometry import FAR_FIELD_MIN_R, AssemblyParams, ReceiveDirection, ScenePlacement
from .geometry import _fraction, _polar, _positive
from .regions import boundary_curve
from .scenarios import GroundGrid, k_map

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_CHECK_FAILED = 3

#: default of an option that has to be given, by flag or config value.
REQUIRED = object()


@dataclass(frozen=True)
class Option:
    """One option: ``--name`` on the command line, ``name`` in a config file.

    ``kind`` is ``"length"`` for a value read in metres under ``--wavelength``
    and ``"angle"`` for one read in degrees under ``--degrees``; defaults are
    already in wavelengths and radians.  A ``bool`` option is a bare flag.
    """

    name: str
    type: object = float
    default: object = None
    help: str | None = None
    choices: tuple = ()
    kind: str = ""
    alias: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def resolve(args: argparse.Namespace, options) -> argparse.Namespace:
    """Every option's value: the flag, else the ``--config`` value, else the default.

    Supplied values get the option's type and choice check whichever source
    they come from; lengths are then divided by the wavelength and angles
    read in degrees turned into radians.
    """
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must contain a JSON object")
    values = {}
    for opt in options:
        raw = getattr(args, opt.name)
        if raw is None:
            raw = config.get(opt.name)
        if raw is None:
            if opt.default is REQUIRED:
                raise ValueError(f"missing required option {opt.flag}")
            values[opt.name] = opt.default
            continue
        value = opt.type(raw)
        if opt.choices and value not in opt.choices:
            raise ValueError(f"{opt.flag} must be one of {', '.join(opt.choices)}; got {value!r}")
        if opt.kind == "length":
            value /= values["wavelength"]
        elif opt.kind == "angle" and values["degrees"]:
            value = math.radians(value)
        values[opt.name] = value
    return argparse.Namespace(**values)


def _sidecar_output(text) -> str:
    # checked before any work: the JSON sidecar is named after the CSV path
    if str(text) == "-":
        raise ValueError("--output needs a file path, not '-': the JSON sidecar goes beside it")
    return str(text)


def _assembly(o) -> AssemblyParams:
    return AssemblyParams(o.source_length, o.rho, o.distance, o.theta)


def cmd_bandwidth_profile(o) -> int:
    params = _assembly(o)
    if o.samples < 2:
        raise ValueError("samples must be at least 2")
    lo, hi = effective_interval(params, getattr(ReceiveDirection, o.direction)())
    ls = np.linspace(lo, hi, o.samples)
    fn = {"x": bandwidth_x, "y": bandwidth_y, "z": bandwidth_z}[o.direction]
    ws = np.asarray(fn(ls, params), dtype=float)
    write_csv(o.output, "l,w", (ls * o.wavelength, ws / o.wavelength))
    return EXIT_OK


def _parse_v_hat(text) -> tuple[float, float, float]:
    parts = [float(p) for p in str(text).split(",")]
    if len(parts) != 3:
        raise ValueError("v-hat must be three comma-separated components")
    return tuple(parts)


def cmd_k_number(o) -> int:
    params = _assembly(o)
    if o.direction != "generic":
        direction = getattr(ReceiveDirection, o.direction)()
    elif o.v_hat is None:
        raise ValueError("missing required option --v-hat")
    else:
        direction = ReceiveDirection.generic(o.v_hat)
    report = k_number(params, direction)
    notes = [] if params.far_field else [
        f"centre distance r = {params.r:g} wavelengths is below "
        f"{FAR_FIELD_MIN_R:g}; far-field results may not reflect physical reality"
    ]
    payload = {key: getattr(report, key) for key in ("k_exact", "k_upper", "k_lower", "k_linear")}
    # quadrature_abs_err is deprecated and always 0.0 (K is exact); it stays
    # one more release for readers of the JSON.
    payload = {**payload, "quadrature_abs_err": 0.0, "warnings": notes}
    write_json(o.output, payload)
    return EXIT_OK


def cmd_region_boundary(o) -> int:
    grid = np.linspace(_polar("--theta-min", o.theta_min), _polar("--theta-max", o.theta_max),
                       o.theta_steps)
    curve = boundary_curve(o.direction, o.kind, grid, o.source_length, o.rho, o.threshold)
    rows = [(theta, radius * o.wavelength, index)
            for theta, radii in curve.samples for index, radius in enumerate(radii)]
    write_csv(o.output, "theta,radius,root_index", zip(*rows))
    return EXIT_OK


def cmd_channel_svd(o) -> int:
    spec = ChannelSpec(_assembly(o), getattr(ReceiveDirection, o.direction)(), o.delta_s, o.delta_r)
    H = build_channel(spec)
    spectrum = singular_spectrum(H)
    maxnorm = normalized_spectrum(spectrum, "max")
    sumnorm = normalized_spectrum(spectrum, "sum")
    sidecar = {"n_t": spec.n_tx, "n_r": spec.n_rx,
               "usable_count": usable_count(spectrum, o.threshold)}
    if o.matrix_csv:
        channel_to_csv(H, o.matrix_csv)
    columns = (range(len(spectrum.sigmas)), spectrum.sigmas, maxnorm, sumnorm)
    write_csv(o.output, "index,sigma,sigma_maxnorm,sigma_sumnorm", columns)
    write_json(_sidecar_path(o.output), sidecar)
    return EXIT_OK


def _sidecar_path(output: str) -> str:
    if output.endswith(".csv"):
        return output[: -len(".csv")] + ".json"
    return output + ".json"


def cmd_scenario_map(o) -> int:
    if o.policy == "hcontrol" and o.mode != "horizontal":
        raise ValueError("--policy hcontrol needs --mode horizontal")
    if o.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {o.threads}")
    scene = ScenePlacement(o.mode, o.source_length, o.source_height, o.receive_length)
    policy = o.phi if o.policy == "fixed" else o.policy
    grid = GroundGrid((o.x_min, o.x_max, o.x_steps), (o.y_min, o.y_max, o.y_steps))
    result = k_map(scene, policy, grid)
    xs, ys = np.meshgrid(grid.xs * o.wavelength, grid.ys * o.wavelength, indexing="ij")
    write_csv(o.output, "x,y,k", (xs.ravel(), ys.ravel(), result.values.ravel()))
    envelope = {
        "scene": {
            key: getattr(scene, key)
            for key in ("mode", "source_length", "source_height", "receive_length")
        },
        "policy": result.policy,
        "grid": {"x_range": list(grid.x_range), "y_range": list(grid.y_range)},
        "lengths_in_wavelengths": True,
        "rows": int(grid.x_range[2] * grid.y_range[2]),
        "status_counts": result.status_counts,
    }
    write_json(_sidecar_path(o.output), envelope)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: randomized self-check of the closed forms against brute oracles


def cmd_verify(o) -> int:
    if o.draws < 0:
        raise ValueError(f"draws must be non-negative, got {o.draws}")
    rng = np.random.default_rng(o.seed)
    draws, probes, directions = [], [], []
    for _ in range(o.draws):
        params = random_params(rng)
        draws.append(params)
        probes.append(float(rng.uniform(0.1, 1.0)) * params.rho)
        v = rng.normal(size=3)
        directions.append(v / np.linalg.norm(v))
    extrema_err, sandwich_err, symmetry_err = axis_draw_errors(
        draws, _AXIS_FORMS, _axis_extrema, _reports, samples=4001, points=11
    )
    generic_err = generic_draw_errors(
        draws, probes, np.reshape(directions, (-1, 3)), _AXIS_FORMS, _spread, samples=4001
    )
    # The starting values report a run without draws.
    worst_extrema = worst_error(np.r_[0.0, extrema_err])
    worst_sandwich = worst_error(np.r_[-math.inf, sandwich_err])
    worst_symmetry = worst_error(np.r_[0.0, symmetry_err])
    worst_generic = worst_error(np.r_[0.0, generic_err])

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
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Option table: each command's options, in the order they are resolved.

AXES = ("x", "y", "z")
CONFIG = Option("config", str, None, "JSON file supplying defaults for any option")
UNITS = (
    CONFIG,
    Option("wavelength", functools.partial(_positive, "wavelength"), 1.0,
           "wavelength in metres; lengths are then read/written in metres"),
    Option("degrees", bool, False, "interpret input angles as degrees"),
)
SOURCE_LENGTH = Option("source_length", float, REQUIRED, "source array length",
                       kind="length", alias="-L")
RHO = Option("rho", float, REQUIRED, "receive array half-length", kind="length")
ASSEMBLY = (
    SOURCE_LENGTH,
    RHO,
    Option("distance", float, REQUIRED, "centre-to-centre distance", kind="length", alias="-r"),
    Option("theta", float, 0.5 * math.pi, "polar angle (default pi/2)", kind="angle"),
)
DIRECTION = Option("direction", str, REQUIRED, "receive array orientation", choices=AXES)
OUTPUT = Option("output", str, None, "output path (default: stdout)", alias="-o")
SIDECAR_OUTPUT = replace(OUTPUT, type=_sidecar_output, default=REQUIRED,
                         help="output CSV path; JSON goes beside it")

#: command name -> (function, help, options in resolution order, units first)
COMMANDS = {
    "bandwidth-profile": (cmd_bandwidth_profile, "tabulate w(l) over the effective interval", (
        *UNITS, *ASSEMBLY, DIRECTION,
        Option("samples", int, 201, "number of rows (default 201)"),
        OUTPUT,
    )),
    "k-number": (cmd_k_number, "exact K number with bounds (JSON)", (
        *UNITS, *ASSEMBLY, replace(DIRECTION, choices=AXES + ("generic",)),
        Option("v_hat", _parse_v_hat, None, "comma-separated unit vector for --direction generic"),
        OUTPUT,
    )),
    "region-boundary": (cmd_region_boundary, "boundary radii per polar angle (CSV)", (
        *UNITS, SOURCE_LENGTH, RHO, DIRECTION,
        Option("kind", str, "smr", "multiplexing or non-constant-bandwidth boundary (default smr)",
               choices=("smr", "ncsmr")),
        Option("threshold", float, 1.0, "K0 for smr curves, delta-K for ncsmr curves (default 1)"),
        Option("theta_min", float, math.pi / 16.0, "first polar angle (default pi/16)",
               kind="angle"),
        Option("theta_max", float, 15.0 * math.pi / 16.0, "last polar angle (default 15pi/16)",
               kind="angle"),
        Option("theta_steps", int, 64, "number of polar angles (default 64)"),
        OUTPUT,
    )),
    "channel-svd": (cmd_channel_svd, "singular spectrum of the sampled channel", (
        *UNITS, *ASSEMBLY, replace(DIRECTION, default="z"),
        Option("delta_s", float, REQUIRED, "source antenna spacing", kind="length"),
        Option("delta_r", float, REQUIRED, "receive antenna spacing", kind="length"),
        Option("threshold", functools.partial(_fraction, "threshold"), 0.3,
               "usability threshold in [0, 1] (default 0.3)"),
        SIDECAR_OUTPUT,
        Option("matrix_csv", str, None,
               "also export the raw channel matrix to this CSV path (- for stdout)"),
    )),
    "scenario-map": (cmd_scenario_map, "K-number map over the ground plane", (
        *UNITS,
        Option("mode", str, REQUIRED, "source placement", choices=("vertical", "horizontal")),
        SOURCE_LENGTH,
        Option("source_height", float, REQUIRED, "source centre height", kind="length"),
        Option("receive_length", float, REQUIRED, "receive array length", kind="length"),
        Option("policy", str, "fixed", "receive orientation policy (default fixed)",
               choices=("fixed", "gamma", "hcontrol")),
        Option("phi", float, 0.0, "orientation angle for --policy fixed", kind="angle"),
        Option("x_min", float, -1000.0, "grid x minimum (default -1000 wavelengths)",
               kind="length"),
        Option("x_max", float, 1000.0, "grid x maximum (default 1000 wavelengths)", kind="length"),
        Option("x_steps", int, 41, "grid x points (default 41)"),
        Option("y_min", float, 0.0, "grid y minimum (default 0)", kind="length"),
        Option("y_max", float, 1000.0, "grid y maximum (default 1000 wavelengths)", kind="length"),
        Option("y_steps", int, 21, "grid y points (default 21)"),
        Option("threads", int, 1, "accepted for compatibility, at least 1; the map is "
                                   "computed in this process (default 1)"),
        SIDECAR_OUTPUT,
    )),
    "verify": (cmd_verify, "randomized oracle self-check", (
        CONFIG,
        Option("draws", int, 100, "number of random geometries (default 100)"),
        Option("seed", int, 0, "RNG seed (default 0)"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losdof",
        description="Spatial bandwidth and degrees-of-freedom analysis "
                    "for line-of-sight links between linear arrays.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in options:
            flags = (opt.flag, opt.alias) if opt.alias else (opt.flag,)
            if opt.type is bool:
                kwargs = {"action": "store_true", "default": None}
            else:
                # resolve applies any other type, to flags and config values alike
                kwargs = {"choices": opt.choices or None,
                          "type": opt.type if opt.type in (int, float) else None}
            p.add_argument(*flags, dest=opt.name, help=opt.help, **kwargs)
        p.set_defaults(func=func, options=options)
    return parser


#: built once per process for ``main``; ``build_parser`` itself builds afresh.
_parser = functools.cache(build_parser)


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
    args = _parser().parse_args(_attach_v_hat(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(resolve(args, args.options))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


if __name__ == "__main__":
    sys.exit(main())
