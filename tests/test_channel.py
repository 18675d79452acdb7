import math

import numpy as np
import pytest

from losdof import (
    AssemblyParams,
    ChannelSpec,
    ReceiveDirection,
    antenna_positions,
    build_channel,
    channel_matrix,
    channel_to_csv,
    normalized_spectrum,
    nyquist_spacing,
    singular_spectrum,
    usable_count,
)
from losdof.channel import antenna_counts


class TestAntennaPositions:
    @pytest.mark.parametrize(
        "length,spacing,count",
        [(400.0, 0.5, 801), (40.0, 0.5, 81), (40.0, 40.0 / 3.0, 4), (40.0, 20.0, 3)],
    )
    def test_counts(self, length, spacing, count):
        pos = antenna_positions(length, spacing, (0, 0, 0), (0, 0, 1))
        assert pos.shape == (count, 3)

    def test_symmetric_about_center(self):
        pos = antenna_positions(10.0, 2.5, (1.0, 2.0, 3.0), (0, 0, 1))
        assert np.allclose(pos.mean(axis=0), [1.0, 2.0, 3.0])
        assert pos[0, 2] == pytest.approx(3.0 - 5.0)
        assert pos[-1, 2] == pytest.approx(3.0 + 5.0)

    @pytest.mark.parametrize("spacing", [math.inf, math.nan, 0.0, -0.5])
    def test_spacing_positive_and_finite(self, spacing):
        with pytest.raises(ValueError) as info:
            antenna_counts(40.0, spacing)
        assert str(info.value) == f"spacing must be positive and finite, got {spacing!r}"

    @pytest.mark.parametrize("length", [math.inf, math.nan, -1.0])
    def test_length_finite_and_non_negative(self, length):
        with pytest.raises(ValueError) as info:
            antenna_positions(length, 1.0, (0, 0, 0), (0, 0, 1))
        assert str(info.value) == f"length must be finite and >= 0, got {length!r}"

    def test_zero_length_is_one_antenna(self):
        assert antenna_counts(0.0, 1.0) == 1

    def test_non_divisible_suggests_alternatives(self):
        with pytest.raises(ValueError) as info:
            antenna_positions(40.0, 0.7, (0, 0, 0), (0, 0, 1))
        message = str(info.value)
        assert "nearest valid" in message
        # suggested spacings: 40/57 and 40/58
        assert repr(40.0 / 57) in message and repr(40.0 / 58) in message


class TestChannelMatrix:
    def test_single_pair(self):
        H = channel_matrix([(0.0, 0.0, 0.0)], [(0.0, 0.0, 7.25)])
        assert H.shape == (1, 1)
        assert abs(H[0, 0]) == pytest.approx(1 / 7.25, rel=1e-12)
        assert np.angle(H[0, 0]) == pytest.approx(
            math.remainder(2 * math.pi * 7.25, 2 * math.pi), abs=1e-12
        )

    def test_distance_homogeneity(self):
        rx = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0)]
        tx = [(5.0, 0.0, 0.0), (5.0, 0.0, 2.0)]
        H1 = channel_matrix(rx, tx)
        H2 = channel_matrix(np.multiply(rx, 2.0), np.multiply(tx, 2.0))
        assert np.allclose(np.abs(H2), np.abs(H1) / 2.0)

    @pytest.mark.parametrize("n_r, n_t", [(7, 40), (40, 7)])
    def test_matches_broadcast_formula(self, n_r, n_t):
        # the reference builds the n_r x n_t x 3 difference tensor; the sum
        # order is the same, so the entries agree bit for bit
        rng = np.random.default_rng(n_r)
        rx = rng.normal(size=(n_r, 3)) * 30.0
        tx = rng.normal(size=(n_t, 3)) * 30.0 + 5.0
        diff = rx[:, None, :] - tx[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        assert np.array_equal(channel_matrix(rx, tx), np.exp(2j * np.pi * dist) / dist)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            channel_matrix([(0, 0, 0)], [(0, 0, 0)])
        with pytest.raises(ValueError):
            channel_matrix([(0, 0, 0), (0, 0, 1)], [(3, 0, 0), (0, 0, 1), (0, 4, 0)])

    def test_mirror_symmetry_at_boresight(self):
        p = AssemblyParams(40.0, 5.0, 100.0, math.pi / 2)
        H = build_channel(ChannelSpec(p, ReceiveDirection.z(), 8.0, 2.5))
        assert np.allclose(H, H[::-1, ::-1], rtol=1e-12)


class TestSingularSpectrum:
    def test_one_by_one(self):
        s = singular_spectrum(np.array([[0.3 - 0.4j]]))
        assert s.sigmas == pytest.approx((0.5,), abs=1e-15)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        s1 = singular_spectrum(H)
        s2 = singular_spectrum(np.exp(1j * 0.823) * H)
        assert np.allclose(s1.sigmas, s2.sigmas, rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        perm = rng.permutation(7)
        s1 = singular_spectrum(H)
        s2 = singular_spectrum(H[:, perm])
        assert np.allclose(s1.sigmas, s2.sigmas, rtol=1e-12)

    def test_conjugate_transpose_invariance(self):
        rng = np.random.default_rng(4)
        H = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        assert np.allclose(
            singular_spectrum(H).sigmas, singular_spectrum(H.conj().T).sigmas, rtol=1e-12
        )

    def test_wide_and_tall_orientations_agree(self):
        p = AssemblyParams(100.0, 10.0, 300.0, 1.1)
        H = build_channel(ChannelSpec(p, ReceiveDirection.x(), 0.5, 0.5))
        assert H.shape[0] < H.shape[1]
        wide = np.asarray(singular_spectrum(H).sigmas)
        tall = np.asarray(singular_spectrum(H.T).sigmas)
        assert np.max(np.abs(wide - tall)) <= 1e-13 * wide[0]

    def test_rank_one(self):
        u = np.ones((4, 1)) / 2.0
        v = np.ones((1, 5)) / math.sqrt(5.0)
        s = singular_spectrum(u @ v)
        assert s.sigmas[0] == pytest.approx(1.0, rel=1e-12)
        assert all(x == pytest.approx(0.0, abs=1e-12) for x in s.sigmas[1:])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            singular_spectrum(np.array([[np.nan + 0j]]))

    def test_deterministic(self):
        p = AssemblyParams(40.0, 5.0, 77.0, 1.0)
        H = build_channel(ChannelSpec(p, ReceiveDirection.z(), 4.0, 2.5))
        s1 = singular_spectrum(H)
        s2 = singular_spectrum(build_channel(ChannelSpec(p, ReceiveDirection.z(), 4.0, 2.5)))
        assert s1.sigmas == s2.sigmas


class TestNormalization:
    def spectrum(self):
        H = np.diag([4.0, 2.0, 1.0, 1.0])
        return singular_spectrum(H)

    def test_maxnorm(self):
        mn = normalized_spectrum(self.spectrum(), "max")
        assert mn[0] == 1.0
        assert np.allclose(mn, [1.0, 0.5, 0.25, 0.25])

    def test_sumnorm(self):
        sn = normalized_spectrum(self.spectrum(), "sum")
        assert sn.sum() == pytest.approx(1.0, abs=1e-12)
        equal = singular_spectrum(np.eye(4) * 3.0)
        assert np.allclose(normalized_spectrum(equal, "sum"), 0.25)

    def test_zero_rejected(self):
        s = singular_spectrum(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            normalized_spectrum(s, "max")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            normalized_spectrum(self.spectrum(), "median")


class TestUsableCount:
    def test_threshold_inclusive(self):
        s = singular_spectrum(np.diag([1.0, 0.3, 0.29]))
        assert usable_count(s, 0.3) == 2

    def test_zero_threshold(self):
        s = singular_spectrum(np.diag([1.0, 0.3, 0.29]))
        assert usable_count(s, 0.0) == 3

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.5, 1.5])
    def test_threshold_outside_unit_interval(self, threshold):
        s = singular_spectrum(np.diag([1.0, 0.3, 0.29]))
        with pytest.raises(ValueError) as info:
            usable_count(s, threshold)
        assert str(info.value) == f"threshold must lie in [0, 1], got {threshold!r}"


class TestSpectrumVsDistance:
    # half-wavelength sampling of the case-study assembly at fractions of
    # the unit-freedom threshold distance: the usable-subchannel pattern
    # tracks the K number through the threshold crossings
    L, RHO, R0 = 400.0, 20.0, 16000.0

    def spectrum_at(self, a):
        from losdof import k_number

        p = AssemblyParams(self.L, self.RHO, a * self.R0, math.pi / 2)
        s = singular_spectrum(build_channel(ChannelSpec(p, ReceiveDirection.z(), 0.5, 0.5)))
        return normalized_spectrum(s, "max"), k_number(p, ReceiveDirection.z()).k_exact

    def test_half_distance_doubles_freedom(self):
        mn, k = self.spectrum_at(0.5)
        assert k == pytest.approx(2.0, abs=0.05)
        assert mn[2] >= 0.3 and mn[3] < 0.3  # exactly 3 usable

    def test_fourth_value_reaches_threshold(self):
        mn, k = self.spectrum_at(0.4)
        assert k == pytest.approx(2.5, abs=0.05)
        assert 0.3 <= mn[3] <= 0.4

    def test_fifth_value_just_below_threshold(self):
        mn, _ = self.spectrum_at(0.3)
        assert 0.25 <= mn[4] < 0.3


class TestNyquistSpacing:
    def test_case_values(self):
        assert nyquist_spacing(3.0, 20.0) == pytest.approx(40.0 / 3.0, rel=1e-15)
        assert nyquist_spacing(1.0, 20.0) == 40.0

    def test_homogeneous_in_rho(self):
        assert nyquist_spacing(3.0, 40.0) == 2 * nyquist_spacing(3.0, 20.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            nyquist_spacing(0.0, 20.0)

    @pytest.mark.parametrize("K, rho", [(math.nan, 20.0), (3.0, math.nan)], ids=["K", "rho"])
    def test_rejects_nan(self, K, rho):
        with pytest.raises(ValueError, match="must be positive and finite, got nan"):
            nyquist_spacing(K, rho)


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        p = AssemblyParams(40.0, 5.0, 100.0, math.pi / 2)
        H = build_channel(ChannelSpec(p, ReceiveDirection.z(), 8.0, 5.0))
        out = tmp_path / "h.csv"
        channel_to_csv(H, out)
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:2] == ["h0_re", "h0_im"]
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        restored = data[:, 0::2] + 1j * data[:, 1::2]
        assert np.allclose(restored, H, rtol=0, atol=0)


class TestChannelSpec:
    def test_counts_exposed(self):
        p = AssemblyParams(400.0, 20.0, 16000.0, math.pi / 2)
        spec = ChannelSpec(p, ReceiveDirection.z(), 0.5, 0.5)
        assert spec.n_tx == 801
        assert spec.n_rx == 81

    def test_bad_spacing_rejected(self):
        p = AssemblyParams(400.0, 20.0, 16000.0, math.pi / 2)
        with pytest.raises(ValueError):
            ChannelSpec(p, ReceiveDirection.z(), 0.5, 0.7)

    @pytest.mark.parametrize("spacing", [math.inf, math.nan])
    @pytest.mark.parametrize("side", ["delta_s", "delta_r"])
    def test_non_finite_spacing_rejected(self, side, spacing):
        # an infinite spacing used to give a single antenna at the array's first end
        p = AssemblyParams(400.0, 20.0, 16000.0, math.pi / 2)
        spacings = {"delta_s": 0.5, "delta_r": 0.5, side: spacing}
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            ChannelSpec(p, ReceiveDirection.z(), **spacings)
