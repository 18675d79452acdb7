"""Discretised LOS channel matrices and their singular spectra.

Antennas are placed uniformly on both arrays and each matrix entry carries
the exact spherical-wavefront response ``exp(j*2*pi*r_ij) / r_ij`` with
``r_ij`` the Euclidean antenna distance in wavelengths (single scalar
polarisation).  Distances being in wavelength units makes the phase term
``2*pi*r_ij`` directly, with no separate wavelength division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._output import write_csv
from .geometry import AssemblyParams, ReceiveDirection, _fraction, _positive

__all__ = [
    "ChannelSpec",
    "SingularSpectrum",
    "antenna_positions",
    "channel_matrix",
    "build_channel",
    "singular_spectrum",
    "normalized_spectrum",
    "usable_count",
    "nyquist_spacing",
    "channel_to_csv",
]


def antenna_counts(length: float, spacing: float) -> int:
    """Number of antennas on a uniformly sampled segment: ``1 + length/spacing``."""
    spacing = _positive("spacing", spacing)
    length = float(length)
    if not 0.0 <= length < math.inf:
        raise ValueError(f"length must be finite and >= 0, got {length!r}")
    ratio = length / spacing
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        lo = max(1, math.floor(ratio))
        hi = math.ceil(ratio)
        raise ValueError(
            f"spacing {spacing!r} does not divide length {length!r}; "
            f"nearest valid spacings: {length / lo!r} ({lo + 1} antennas) "
            f"or {length / hi!r} ({hi + 1} antennas)"
        )
    return int(n) + 1


def antenna_positions(length: float, spacing: float, center, axis) -> np.ndarray:
    """Uniform antenna positions along a segment, symmetric about its centre.

    Returns an ``(n, 3)`` array with ``n = 1 + length/spacing``; the spacing
    must divide the length (within 1e-9), otherwise the error lists the
    nearest valid choices.
    """
    n = antenna_counts(length, spacing)
    center = np.asarray(center, dtype=float)
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    offsets = np.linspace(-0.5 * length, 0.5 * length, n)
    return center[None, :] + offsets[:, None] * axis[None, :]


@dataclass(frozen=True)
class ChannelSpec:
    """Uniformly sampled source and receive arrays for one assembly."""

    params: AssemblyParams
    direction: ReceiveDirection
    delta_s: float
    delta_r: float

    def __post_init__(self):
        # Validates both spacings: positive, finite and dividing their array.
        antenna_counts(self.params.L, self.delta_s)
        antenna_counts(2.0 * self.params.rho, self.delta_r)

    @property
    def n_tx(self) -> int:
        return antenna_counts(self.params.L, self.delta_s)

    @property
    def n_rx(self) -> int:
        return antenna_counts(2.0 * self.params.rho, self.delta_r)


def channel_matrix(rx_positions, tx_positions) -> np.ndarray:
    """Spherical-wavefront channel between explicit antenna positions.

    Entry ``(i, j)`` is ``exp(j*2*pi*r_ij) / r_ij`` for the exact distance
    ``r_ij`` between receive antenna ``i`` and source antenna ``j`` (in
    wavelengths).  Coincident antennas are rejected.
    """
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    # squared distance one coordinate at a time, in the order of a sum over
    # the last axis, so no n_r x n_t x 3 temporary is built and the entries
    # equal those of the broadcast formula bit for bit
    dist = np.subtract.outer(rx[:, 0], tx[:, 0])
    dist *= dist
    for k in range(1, rx.shape[1]):
        delta = np.subtract.outer(rx[:, k], tx[:, k])
        delta *= delta
        dist += delta
    np.sqrt(dist, out=dist)
    if float(dist.min()) <= 0.0:
        raise ValueError("coincident source/receive antennas (zero distance)")
    H = 2j * np.pi * dist
    np.exp(H, out=H)
    H /= dist
    return H


def build_channel(spec: ChannelSpec) -> np.ndarray:
    """Channel matrix (n_rx x n_tx) of a uniformly sampled assembly."""
    params = spec.params
    source_center = np.array([-params.d, 0.0, -params.c])
    tx = antenna_positions(params.L, spec.delta_s, source_center, (0.0, 0.0, 1.0))
    rx = antenna_positions(
        2.0 * params.rho, spec.delta_r, (0.0, 0.0, 0.0), spec.direction.unit_vector
    )
    return channel_matrix(rx, tx)


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values of a channel matrix, sorted in decreasing order."""

    sigmas: tuple[float, ...]
    n_rows: int
    n_cols: int

    def __post_init__(self):
        if len(self.sigmas) != min(self.n_rows, self.n_cols):
            raise ValueError("spectrum length must equal min(n_rows, n_cols)")
        if any(s2 > s1 for s1, s2 in zip(self.sigmas, self.sigmas[1:])):
            raise ValueError("singular values must be non-increasing")


def singular_spectrum(H) -> SingularSpectrum:
    """Singular values of ``H`` (descending), via LAPACK SVD."""
    H = np.asarray(H)
    if not np.all(np.isfinite(H.real)) or not np.all(np.isfinite(H.imag)):
        raise ValueError("channel matrix must have finite entries")
    # LAPACK is faster on the tall orientation; H and H.T share singular values
    sigmas = np.linalg.svd(H.T if H.shape[0] < H.shape[1] else H, compute_uv=False)
    return SingularSpectrum(tuple(float(s) for s in sigmas), H.shape[0], H.shape[1])


def normalized_spectrum(spectrum: SingularSpectrum, mode: str = "max") -> np.ndarray:
    """Spectrum divided by its largest value (``mode="max"``) or its sum (``"sum"``)."""
    sigmas = np.asarray(spectrum.sigmas, dtype=float)
    if sigmas[0] <= 0:
        raise ValueError("cannot normalise an all-zero spectrum")
    if mode == "max":
        return sigmas / sigmas[0]
    if mode == "sum":
        return sigmas / sigmas.sum()
    raise ValueError(f"mode must be 'max' or 'sum', got {mode!r}")


def usable_count(spectrum: SingularSpectrum, threshold: float = 0.3) -> int:
    """Subchannels whose singular value reaches ``threshold`` of the largest.

    The default 0.3 corresponds to roughly 10 dB of power-gain loss against
    the best subchannel.  ``threshold`` must lie in ``[0, 1]``.
    """
    threshold = _fraction("threshold", threshold)
    ratios = normalized_spectrum(spectrum, "max")
    return int(np.count_nonzero(ratios >= threshold))


def nyquist_spacing(K: float, rho: float) -> float:
    """Receive spacing matching a constant bandwidth of ``K`` over the array.

    A constant local bandwidth ``K / (2 rho)`` makes ``2 rho / K`` the
    critical sampling interval of the received field.
    """
    K, rho = _positive("K", K), _positive("rho", rho)
    return 2.0 * rho / K


def channel_to_csv(H, path) -> None:
    """Write a complex channel matrix as CSV with (real, imag) column pairs."""
    H = np.asarray(H, dtype=complex)
    header = ",".join(f"h{j}_re,h{j}_im" for j in range(H.shape[1]))
    write_csv(path, header, [part for column in H.T for part in (column.real, column.imag)])
