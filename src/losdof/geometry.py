"""Geometry of a linear source / linear receive antenna-array assembly.

All lengths are expressed in wavelengths (the wavelength is normalised to 1)
and all angles in radians.

Conventions
-----------
The receiving coordinate frame has its origin at the centre of the receive
array.  ``e_z`` is parallel to the source array, ``e_x`` lies in the plane
spanned by the receive centre and the source array (pointing from the source
axis toward the receive centre), and ``e_y`` completes the right-handed
frame.  In this frame the source segment runs from

    (-d, 0, -r*cos(theta) - L/2)   to   (-d, 0, -r*cos(theta) + L/2)

where ``d = r*sin(theta)`` is the perpendicular distance from the receive
centre to the source axis, ``r`` the centre-to-centre distance and ``theta``
the polar angle of the receive centre seen from the source centre (measured
from the source axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FAR_FIELD_MIN_R",
    "AssemblyParams",
    "ReceiveDirection",
    "ScenePlacement",
    "LocalFrame",
    "arctan_star",
    "gamma",
    "scene_to_local",
    "vertical_scene_to_local",
    "horizontal_scene_to_local",
]

_UNIT_TOL = 1e-12

#: centre distance (in wavelengths) below which the far-field model behind
#: the closed forms may not reflect physical reality.
FAR_FIELD_MIN_R = 10.0


def _as_unit_tuple(v) -> tuple[float, float, float]:
    vx, vy, vz = (float(c) for c in v)
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    if not abs(norm - 1.0) <= _UNIT_TOL:  # a NaN norm fails too
        raise ValueError(f"direction vector must have unit norm, got |v| = {norm!r}")
    return (vx, vy, vz)


@dataclass(frozen=True)
class AssemblyParams:
    """Geometric parameters of a source/receive linear-array assembly.

    Parameters
    ----------
    L : float
        Source array length (wavelengths, > 0).
    rho : float
        Receive array half-length (wavelengths, > 0); the array spans
        ``[-rho, rho]`` along its orientation.
    r : float
        Distance between the array centres (wavelengths, > 0).
    theta : float
        Polar angle of the receive centre from the source axis, in
        ``[0, pi]``.

    The receive array's orientation is not part of the assembly; it is
    given separately as a ``ReceiveDirection``.
    """

    L: float
    rho: float
    r: float
    theta: float

    def __post_init__(self):
        for name in ("L", "rho", "r", "theta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.L <= 0:
            raise ValueError(f"source length L must be positive, got {self.L!r}")
        if self.rho <= 0:
            raise ValueError(f"receive half-length rho must be positive, got {self.rho!r}")
        if self.r <= 0:
            raise ValueError(f"centre distance r must be positive, got {self.r!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")

    # Derived quantities used throughout the bandwidth closed forms.
    @property
    def d(self) -> float:
        """Perpendicular distance from the receive centre to the source axis."""
        return self.r * math.sin(self.theta)

    @property
    def c(self) -> float:
        """Signed axial offset of the receive centre from the source centre: ``r*cos(theta)``."""
        return self.r * math.cos(self.theta)

    @property
    def far_field(self) -> bool:
        """True when the centre distance is at least ``FAR_FIELD_MIN_R`` wavelengths.

        Results for a geometry outside this regime are still computed; the
        flag says whether the far-field model behind them applies.
        """
        return self.r >= FAR_FIELD_MIN_R


@dataclass(frozen=True)
class ReceiveDirection:
    """Orientation of the receive array: one of the frame axes or a generic unit vector."""

    tag: str
    v: tuple[float, float, float] | None = None

    _AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}

    def __post_init__(self):
        if self.tag not in ("x", "y", "z", "generic"):
            raise ValueError(f"unknown direction tag {self.tag!r}")
        if self.tag == "generic":
            if self.v is None:
                raise ValueError("generic direction requires a unit vector")
            object.__setattr__(self, "v", _as_unit_tuple(self.v))
        elif self.v is not None:
            raise ValueError("axis directions carry no explicit vector")

    @classmethod
    def x(cls) -> "ReceiveDirection":
        return cls("x")

    @classmethod
    def y(cls) -> "ReceiveDirection":
        return cls("y")

    @classmethod
    def z(cls) -> "ReceiveDirection":
        return cls("z")

    @classmethod
    def generic(cls, v) -> "ReceiveDirection":
        return cls("generic", tuple(float(c) for c in v))

    @property
    def is_axis(self) -> bool:
        return self.tag != "generic"

    @property
    def unit_vector(self) -> np.ndarray:
        if self.tag == "generic":
            return np.array(self.v, dtype=float)
        return np.array(self._AXES[self.tag], dtype=float)


@dataclass(frozen=True)
class ScenePlacement:
    """An elevated source array above a ground plane carrying the receive array.

    ``mode`` selects the source alignment: ``"vertical"`` keeps the source
    along the vertical axis through the world origin, ``"horizontal"`` lays
    it along the ground-parallel x'' axis at height ``source_height``.  The
    receive array lies on the ground; its centre ``(x'', y'')``, with
    ``y'' >= 0`` (the other half-plane is its mirror image), is given to
    each transform rather than stored here.
    """

    mode: str
    source_length: float
    source_height: float
    receive_length: float

    def __post_init__(self):
        if self.mode not in ("vertical", "horizontal"):
            raise ValueError(f"mode must be 'vertical' or 'horizontal', got {self.mode!r}")
        if self.source_length <= 0:
            raise ValueError("source_length must be positive")
        if self.receive_length <= 0:
            raise ValueError("receive_length must be positive")
        if self.source_height <= 0:
            raise ValueError("source_height must be positive")
        if self.mode == "vertical" and self.source_height <= 0.5 * self.source_length:
            raise ValueError(
                "vertical placement needs source_height > source_length/2 "
                "so the array stays above the ground"
            )


@dataclass(frozen=True)
class LocalFrame:
    """Receive-frame description of a scene placement for one ground position.

    ``params`` is the local assembly and ``direction`` the receive-array
    orientation in receiving coordinates, as a generic direction.
    ``projections`` holds the receive-array projections onto the three
    receiving axes as ``(L_x, L_y, L_z)``.  ``angle`` is the in-scene
    reference angle (``gamma`` for vertical placement, ``psi`` for
    horizontal).  ``degenerate`` marks positions where that angle is
    undefined and a convention was applied.
    """

    params: AssemblyParams
    direction: ReceiveDirection
    angle: float
    projections: tuple[float, float, float]
    degenerate: bool = False


def arctan_star(x: float) -> float:
    """Arctangent shifted onto [0, pi): ``pi`` is added for negative arguments.

    Strictly increasing on ``x > 0`` and on ``x < 0`` separately; the two
    half-ranges ``[0, pi/2)`` and ``(pi/2, pi)`` together cover the polar
    range as the argument sweeps +-infinity.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"arctan_star requires a finite argument, got {x!r}")
    return (math.pi if x < 0 else 0.0) + math.atan(x)


def _check_phi(phi: float) -> float:
    phi = float(phi)
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"orientation angle phi must lie in [0, pi], got {phi!r}")
    return phi


def gamma(x, y):
    """Azimuth ``gamma`` in ``[0, pi]`` of ground points ``(x, y)``, ``y >= 0``, elementwise.

    At the origin the azimuth is undefined and 0 is returned; every
    orientation is equivalent there by symmetry.
    """
    # + 0.0 turns y = -0.0 into +0.0, so the azimuth stays in [0, pi].
    return np.arctan2(np.asarray(y, dtype=float) + 0.0, np.asarray(x, dtype=float))


def scene_to_local(mode: str, source_height: float, x, y, phi):
    """Receive-frame geometry of ground positions, elementwise over arrays.

    For receive centres ``(x, y)`` on the ground (``y >= 0``) under a source
    placed in ``mode`` at ``source_height``, and ground orientation angles
    ``phi`` in ``[0, pi]`` (not checked here), returns ``(d, c, v_hat,
    angle)``: the distance of the receive centre from the source axis, its
    axial offset from the source centre, the receive-array orientation in
    receiving coordinates (last axis of length 3) and the in-scene
    reference angle (``gamma`` for the vertical placement, ``psi`` for the
    horizontal one).  ``x``, ``y`` and ``phi`` broadcast.  The frame is read
    straight off the ground coordinates: ``(d, c) = (hypot(x, y), height)``
    for the vertical placement and ``(hypot(y, height), x)`` for the
    horizontal one.
    """
    x, y, phi = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (x, y, phi)))
    if mode == "vertical":
        d, c = np.hypot(x, y), np.full_like(x, source_height)
        angle = gamma(x, y)
        delta = phi - angle
        v_hat = np.stack([np.cos(delta), -np.sin(delta), np.zeros_like(delta)], axis=-1)
    elif mode == "horizontal":
        d, c = np.hypot(y, source_height), x
        angle = np.arctan2(source_height, y)
        sin_phi = np.sin(phi)
        v_hat = np.stack([sin_phi * (y / d), sin_phi * (source_height / d), np.cos(phi)],
                         axis=-1)
    else:
        raise ValueError(f"mode must be 'vertical' or 'horizontal', got {mode!r}")
    return d, c, v_hat, angle


def _scene_frame(scene: ScenePlacement, mode: str, x: float, y: float, phi: float) -> LocalFrame:
    if scene.mode != mode:
        raise ValueError(f"{mode}_scene_to_local requires a {mode}-mode scene")
    x, y = float(x), float(y)
    if y < 0:
        raise ValueError("the receive centre must lie in the y'' >= 0 half-plane")
    d, c, v_hat, angle = scene_to_local(mode, scene.source_height, x, y, _check_phi(phi))
    lr = scene.receive_length
    # Only a vertical placement's v_y can be negative: phi in [0, pi] and y >= 0
    # keep sin(phi), cos(psi) and sin(psi) non-negative.
    projections = tuple(float(p) for p in lr * np.abs(v_hat))
    params = AssemblyParams(scene.source_length, 0.5 * lr, float(np.hypot(d, c)),
                            float(np.arctan2(d, c)))
    direction = ReceiveDirection.generic(v_hat)
    degenerate = mode == "vertical" and x == 0.0 and y == 0.0
    return LocalFrame(params, direction, float(angle), projections, degenerate)


def vertical_scene_to_local(scene: ScenePlacement, x: float, y: float, phi: float) -> LocalFrame:
    """Local assembly for a vertically placed source and a ground receive array at ``(x, y)``.

    ``phi`` is the receive-array orientation angle on the ground, measured
    from the x'' axis, and ``y`` must be non-negative.  Returns the local
    frame with ``angle = gamma``, the azimuth of the receive centre.  The
    receive array is horizontal, so its projection on ``e_z`` is zero and
    its receiving-frame orientation is ``(cos(phi - gamma), -sin(phi -
    gamma), 0)``.

    At the ground point directly below the source (``r1 = 0``) the azimuth is
    undefined; ``gamma = 0`` is used by convention and the result is flagged
    degenerate (all orientations are equivalent there by symmetry).
    """
    return _scene_frame(scene, "vertical", x, y, phi)


def horizontal_scene_to_local(scene: ScenePlacement, x: float, y: float, phi: float) -> LocalFrame:
    """Local assembly for a horizontally placed source and a ground receive array at ``(x, y)``.

    ``phi`` is the receive-array orientation angle on the ground, measured
    from the x'' axis (the source direction), and ``y`` must be
    non-negative.  Returns the local frame with ``angle = psi``, the tilt of
    the receiving ``e_x`` axis against the ground; the receiving-frame
    orientation of the receive array is ``(sin(phi) cos(psi), sin(phi)
    sin(psi), cos(phi))``.
    """
    return _scene_frame(scene, "horizontal", x, y, phi)
