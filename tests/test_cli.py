import json
import math
import os

import numpy as np
import pytest

from losdof.cli import main

from helpers import reference_verify


def run(args):
    return main([str(a) for a in args])


def load_json(text):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``, which JSON lacks."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


ASSEMBLY = ["--source-length", 400, "--rho", 20, "--distance", 300, "--theta", math.pi / 2]


class TestBandwidthProfile:
    def test_y_profile_starts_at_zero(self, tmp_path):
        out = tmp_path / "wy.csv"
        assert run(["bandwidth-profile", *ASSEMBLY, "--direction", "y",
                    "--samples", 11, "--output", out]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "l,w"
        assert len(lines) == 12
        first_l, first_w = (float(v) for v in lines[1].split(","))
        assert first_l == 0.0 and first_w == 0.0

    def test_z_profile_symmetric_at_boresight(self, tmp_path):
        out = tmp_path / "wz.csv"
        assert run(["bandwidth-profile", *ASSEMBLY, "--direction", "z",
                    "--samples", 21, "--output", out]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.allclose(data[:, 1], data[::-1, 1], rtol=1e-12)

    def test_row_count_matches_samples(self, tmp_path):
        out = tmp_path / "w.csv"
        run(["bandwidth-profile", *ASSEMBLY, "--direction", "x",
             "--samples", 37, "--output", out])
        assert len(out.read_text().splitlines()) == 38

    def test_degrees_flag(self, tmp_path):
        out_rad = tmp_path / "rad.csv"
        out_deg = tmp_path / "deg.csv"
        run(["bandwidth-profile", "--source-length", 400, "--rho", 20,
             "--distance", 300, "--theta", math.pi / 3, "--direction", "z",
             "--samples", 5, "--output", out_rad])
        run(["bandwidth-profile", "--source-length", 400, "--rho", 20,
             "--distance", 300, "--theta", 60, "--degrees", "--direction", "z",
             "--samples", 5, "--output", out_deg])
        assert np.allclose(
            np.loadtxt(out_rad, delimiter=",", skiprows=1),
            np.loadtxt(out_deg, delimiter=",", skiprows=1),
            rtol=1e-12,
        )

    def test_wavelength_scaling(self, tmp_path):
        lam = 0.125  # metres
        out_lambda = tmp_path / "lam.csv"
        out_metres = tmp_path / "m.csv"
        run(["bandwidth-profile", *ASSEMBLY, "--direction", "z",
             "--samples", 9, "--output", out_lambda])
        metres = ["--source-length", 400 * lam, "--rho", 20 * lam,
                  "--distance", 300 * lam, "--theta", math.pi / 2]
        run(["bandwidth-profile", *metres, "--direction", "z", "--wavelength", lam,
             "--samples", 9, "--output", out_metres])
        a = np.loadtxt(out_lambda, delimiter=",", skiprows=1)
        b = np.loadtxt(out_metres, delimiter=",", skiprows=1)
        assert np.allclose(b[:, 0], a[:, 0] * lam, rtol=1e-12)  # lengths in metres
        assert np.allclose(b[:, 1], a[:, 1] / lam, rtol=1e-12)  # cycles per metre

    def test_missing_argument_exits_2(self, capsys):
        assert run(["bandwidth-profile", "--direction", "z"]) == 2
        assert "missing required option" in capsys.readouterr().err


class TestKNumberCommand:
    def test_boresight_unit_upper_bound(self, tmp_path):
        out = tmp_path / "k.json"
        args = ["k-number", "--source-length", 400, "--rho", 20,
                "--distance", 15998.74995116806, "--theta", math.pi / 2,
                "--direction", "z", "--output", out]
        assert run(args) == 0
        payload = load_json(out.read_text())
        assert payload["k_upper"] == pytest.approx(1.0, abs=1e-9)
        assert payload["warnings"] == []
        assert set(payload) == {
            "k_exact", "k_upper", "k_lower", "k_linear", "quadrature_abs_err", "warnings"
        }

    def test_deprecated_error_key_kept(self, tmp_path):
        # K is exact, so the quadrature error key is always 0.0; it stays in
        # its place for readers of the JSON report
        out = tmp_path / "k.json"
        assert run(["k-number", *ASSEMBLY, "--direction", "generic",
                    "--v-hat", "0.6,0.0,0.8", "--output", out]) == 0
        payload = load_json(out.read_text())
        assert list(payload) == [
            "k_exact", "k_upper", "k_lower", "k_linear", "quadrature_abs_err", "warnings"
        ]
        assert payload["quadrature_abs_err"] == 0.0

    def test_far_field_warning_included(self, tmp_path):
        out = tmp_path / "k.json"
        run(["k-number", "--source-length", 40, "--rho", 2, "--distance", 5,
             "--direction", "z", "--output", out])
        payload = load_json(out.read_text())
        assert len(payload["warnings"]) == 1
        assert "far-field" in payload["warnings"][0]

    @pytest.mark.parametrize("link", [
        # the e_z array runs from 5 to 15 on the source axis and the source from -5 to 5
        ["-L", 10, "--rho", 5, "-r", 10, "--theta", 0, "--direction", "z"],
    ], ids=["z-end-on-end"])
    def test_indeterminate_link_exits_2(self, tmp_path, capsys, link):
        out = tmp_path / "k.json"
        assert run(["k-number", *link, "--output", out]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: indeterminate bandwidth: "
                                "a receive-array end coincides with a source end\n")

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["k-number", *ASSEMBLY, "--direction", "x"]
        run(args + ["--output", out1])
        run(args + ["--output", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_generic_direction(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["k-number", *ASSEMBLY, "--direction", "generic",
                    "--v-hat", "0.6,0.0,0.8", "--output", out]) == 0
        payload = load_json(out.read_text())
        assert payload["k_lower"] <= payload["k_exact"] <= payload["k_upper"]

    def test_generic_v_hat_with_leading_minus(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["k-number", *ASSEMBLY, "--direction", "generic",
                    "--v-hat", "-0.6,0,0.8", "--output", out]) == 0
        assert load_json(out.read_text())["k_exact"] > 0

    def test_generic_array_through_source(self, tmp_path):
        # the receive array crosses the source segment, where the bandwidth
        # is undefined; K and its bounds are finite all the same
        out = tmp_path / "k.json"
        assert run(["k-number", "-L", 400, "--rho", 20, "-r", 10, "--direction", "generic",
                    "--v-hat", "0.6,0,0.8", "--output", out]) == 0
        payload = load_json(out.read_text())
        assert payload["k_lower"] <= payload["k_exact"] <= payload["k_upper"]

    def test_generic_near_range_converges(self, tmp_path):
        # close-range link whose spread peaks next to a source end; the
        # reference is scipy.integrate.quad at epsabs 1e-12
        out = tmp_path / "k.json"
        assert run(["k-number", "-L", 148.5, "--rho", 12.0, "-r", 66.61555420434652,
                    "--theta", 2.9466757769015084, "--direction", "generic",
                    "--v-hat=-0.5464368685021558,-0.8068938736714304,-0.22434131445873173",
                    "--output", out]) == 0
        payload = load_json(out.read_text())
        assert payload["k_exact"] == pytest.approx(16.261847046728192, abs=1e-9)

    @pytest.mark.parametrize("link, expected", [
        (["-L", 310.5, "--rho", 15.5, "-r", 134.5935140817356, "--theta", 0.14755037867557017,
          "--v-hat=-0.21570050791708067,-0.5919830393290182,-0.776549658445029"],
         37.373724012595),
        (["-L", 201.5, "--rho", 19.75, "-r", 105.63736807171121, "--theta", 2.764020660964741,
          "--v-hat=-0.5430228839371553,-0.7857897884027124,0.2960752538842032"],
         9.620119051611999),
        (["-L", 250.5, "--rho", 20.0, "-r", 76.71363806485385, "--theta", 2.503888889255462,
          "--v-hat=-0.7146998109217237,-0.6720352680889345,0.19383699005372076"],
         18.435297933713297),
    ], ids=["stationary-crosses-end", "ends-equal-a", "ends-equal-b"])
    def test_generic_kink_inside_array(self, tmp_path, link, expected):
        # w(l) has a kink inside the array: where the stationary point of the
        # spatial frequency crosses a source end, or where the frequencies
        # toward the two ends are equal; the reference is scipy.integrate.quad
        # with that point given
        out = tmp_path / "k.json"
        assert run(["k-number", *link, "--direction", "generic", "--output", out]) == 0
        payload = load_json(out.read_text())
        assert payload["k_exact"] == pytest.approx(expected, abs=1e-9)


class TestRegionBoundaryCommand:
    def test_z_smr_contains_boresight(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["region-boundary", "--source-length", 400, "--rho", 20,
                    "--direction", "z", "--kind", "smr", "--threshold", 1,
                    "--theta-min", math.pi / 2, "--theta-max", math.pi / 2,
                    "--theta-steps", 1, "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,radius,root_index"
        theta, radius, idx = lines[1].split(",")
        assert float(radius) == pytest.approx(15998.75, abs=1e-2)
        assert idx == "0"

    def test_ncsmr_multiple_roots_per_theta(self, tmp_path):
        out = tmp_path / "nc.csv"
        run(["region-boundary", "--source-length", 400, "--rho", 20,
             "--direction", "z", "--kind", "ncsmr", "--threshold", 1,
             "--theta-min", 0.05, "--theta-max", 1.5, "--theta-steps", 24,
             "--output", out])
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data[:, 2].max() >= 1  # some theta carries a second root

    def test_empty_result_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run(["region-boundary", "--source-length", 400, "--rho", 20,
                    "--direction", "z", "--kind", "smr", "--threshold", 1e9,
                    "--theta-steps", 3, "--output", out]) == 0
        assert out.read_text() == "theta,radius,root_index\n"

    def test_wavelength_scales_radii(self, tmp_path):
        lam = 0.2
        out_lambda = tmp_path / "a.csv"
        out_metres = tmp_path / "b.csv"
        base = ["region-boundary", "--direction", "z", "--kind", "smr",
                "--threshold", 1, "--theta-min", 1.2, "--theta-max", 1.8,
                "--theta-steps", 3]
        run(base + ["--source-length", 400, "--rho", 20, "--output", out_lambda])
        run(base + ["--source-length", 400 * lam, "--rho", 20 * lam,
                    "--wavelength", lam, "--output", out_metres])
        a = np.loadtxt(out_lambda, delimiter=",", skiprows=1)
        b = np.loadtxt(out_metres, delimiter=",", skiprows=1)
        assert np.allclose(b[:, 0], a[:, 0], rtol=1e-12)          # theta unchanged
        assert np.allclose(b[:, 1], a[:, 1] * lam, rtol=1e-9)     # radii in metres


class TestRegionBoundaryEdgeCases:
    """Edge cases of the array pass, pinned to the per-angle solver's output."""

    BASE = ["region-boundary", "-L", 400, "--rho", 20]

    def rows(self, tmp_path, *args):
        out = tmp_path / "b.csv"
        assert run([*self.BASE, *args, "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,radius,root_index"
        return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]

    def assert_rows(self, got, expected):
        assert len(got) == len(expected)
        for (theta, radius, index), (theta_e, radius_e, index_e) in zip(got, expected):
            assert (theta, index) == (theta_e, index_e)
            assert radius == pytest.approx(radius_e, rel=1e-12)

    def test_no_angles_writes_header_only(self, tmp_path):
        assert self.rows(tmp_path, "--direction", "z", "--kind", "smr", "--theta-steps", 0) == []

    def test_one_angle(self, tmp_path):
        got = self.rows(tmp_path, "--direction", "z", "--kind", "smr", "--theta-steps", 1)
        self.assert_rows(got, [(0.19634954084936207, 759.8896171565374, 0)])

    def test_one_endfire_angle_with_two_roots(self, tmp_path):
        got = self.rows(tmp_path, "--direction", "x", "--kind", "ncsmr",
                        "--theta-min", 0, "--theta-max", 0, "--theta-steps", 1)
        self.assert_rows(got, [(0.0, 199.49968710876348, 0), (0.0, 446.3172876215587, 1)])

    def test_angles_without_root_are_empty(self, tmp_path):
        # theta = 0 (a jump of w_range, not a root) and pi/2 have no root
        got = self.rows(tmp_path, "--direction", "z", "--kind", "ncsmr", "--theta-min", 0,
                        "--theta-max", math.pi / 2, "--theta-steps", 3)
        self.assert_rows(got, [(0.7853981633974483, 96.71704403645134, 0),
                               (0.7853981633974483, 590.3502760828891, 1)])
        assert self.rows(tmp_path, "--direction", "y", "--kind", "smr",
                         "--threshold", 1e6, "--theta-steps", 3) == []

    def test_start_pushed_outward(self, tmp_path):
        # K0 = 0.1 is still exceeded at 4 R0 = 64,000 near broadside, so the
        # scan starts further out there
        got = self.rows(tmp_path, "--direction", "z", "--kind", "smr",
                        "--threshold", 0.1, "--theta-steps", 3)
        self.assert_rows(got, [(0.19634954084936207, 6160.611274431184, 0),
                               (1.5707963267948963, 159999.87499995113, 0),
                               (2.945243112740431, 6160.611274431067, 0)])


class TestRegionBoundaryInputChecks:
    """L, rho and the threshold are checked for every kind and direction first (default smr)."""

    @pytest.mark.parametrize("args", [
        # K0 = 0 on e_x used to give a radius of 67108864000 at broadside
        ["-L", 400, "--rho", 20, "--direction", "x", "--threshold", 0,
         "--theta-min", math.pi / 2, "--theta-max", math.pi / 2, "--theta-steps", 1],
        ["-L", 400, "--rho", 20, "--direction", "z", "--threshold", 0],
        ["-L", 400, "--rho", 20, "--direction", "x", "--threshold", -1],
        ["-L", 400, "--rho", 20, "--direction", "z", "--threshold", -1],
        # an empty polar-angle grid skips the solve, not the checks
        ["-L", 400, "--rho", -2, "--direction", "z", "--theta-steps", 0],
        ["-L", 0, "--rho", 20, "--direction", "x", "--kind", "ncsmr", "--theta-steps", 0],
        ["-L", 400, "--rho", 20, "--direction", "y", "--threshold", -1, "--theta-steps", 0],
        # infinite input used to warn and then fail in the scan, or exit 0 with no rows
        ["-L", "inf", "--rho", 20, "--direction", "z"],
        ["-L", "inf", "--rho", 20, "--direction", "x", "--kind", "ncsmr"],
        ["-L", 400, "--rho", "inf", "--direction", "z"],
        ["-L", 400, "--rho", "inf", "--direction", "z", "--kind", "ncsmr"],
        ["-L", 400, "--rho", 20, "--direction", "x", "--threshold", "inf"],
        ["-L", 400, "--rho", 20, "--direction", "z", "--kind", "ncsmr", "--threshold", "inf"],
    ], ids=["x-K0-zero", "z-K0-zero", "x-K0-negative", "z-K0-negative", "rho-negative-no-angles",
            "L-zero-no-angles", "y-K0-negative-no-angles", "L-inf-smr", "L-inf-ncsmr",
            "rho-inf-smr", "rho-inf-ncsmr", "threshold-inf-smr", "threshold-inf-ncsmr"])
    def test_bad_input_exits_2_and_writes_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "b.csv"
        assert run(["region-boundary", *args, "--output", out]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "must be positive" in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["smr", "ncsmr"])
    def test_scan_start_overflow_exits_2(self, tmp_path, capsys, kind):
        # 8*rho*L overflows although L and rho are finite; this used to warn
        # and then fail in the scan (smr) or exit 0 with no rows (ncsmr)
        out = tmp_path / "b.csv"
        assert run(["region-boundary", "-L", 1e300, "--rho", 1e10, "--direction", "z",
                    "--kind", kind, "--output", out]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows" in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_huge_finite_scan_start_solves(self, tmp_path):
        # 8*rho*L = 8e302 is finite, but divided by the scan floor it is not
        out = tmp_path / "b.csv"
        assert run(["region-boundary", "-L", 1e300, "--rho", 100, "--direction", "z",
                    "--theta-min", math.pi / 2, "--theta-max", math.pi / 2,
                    "--theta-steps", 1, "--output", out]) == 0
        _, radius, _ = out.read_text().splitlines()[1].split(",")
        assert float(radius) == pytest.approx(2e302, rel=1e-4)


class TestChannelSvdCommand:
    def test_case_study_sidecar(self, tmp_path):
        out = tmp_path / "svd.csv"
        assert run(["channel-svd", "--source-length", 400, "--rho", 20,
                    "--distance", 8000, "--theta", math.pi / 2, "--direction", "z",
                    "--delta-s", 0.5, "--delta-r", 0.5, "--output", out]) == 0
        sidecar = load_json((tmp_path / "svd.json").read_text())
        assert sidecar == {"n_t": 801, "n_r": 81, "usable_count": 3}
        lines = out.read_text().splitlines()
        assert lines[0] == "index,sigma,sigma_maxnorm,sigma_sumnorm"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data[0, 2] == 1.0
        assert data[:, 3].sum() == pytest.approx(1.0, abs=1e-9)

    def test_nyquist_spacing_four_rows(self, tmp_path):
        out = tmp_path / "ny.csv"
        run(["channel-svd", "--source-length", 400, "--rho", 20,
             "--distance", 5329.582014046171, "--theta", math.pi / 2,
             "--delta-s", 0.5, "--delta-r", 40 / 3, "--output", out])
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape[0] == 4
        assert np.all(data[:, 2] >= 0.9)

    def test_bad_spacing_exits_2(self, tmp_path, capsys):
        code = run(["channel-svd", "--source-length", 400, "--rho", 20,
                    "--distance", 8000, "--delta-s", 0.7, "--delta-r", 0.5,
                    "--output", tmp_path / "x.csv"])
        assert code == 2
        assert "nearest valid" in capsys.readouterr().err

    def test_matrix_export(self, tmp_path):
        out = tmp_path / "svd.csv"
        hpath = tmp_path / "H.csv"
        run(["channel-svd", "--source-length", 40, "--rho", 5, "--distance", 100,
             "--delta-s", 8, "--delta-r", 2.5, "--output", out,
             "--matrix-csv", hpath])
        header = hpath.read_text().splitlines()[0]
        assert header.startswith("h0_re,h0_im")

    def test_matrix_to_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["channel-svd", "--source-length", 40, "--rho", 5, "--distance", 100,
                "--delta-s", 8, "--delta-r", 2.5, "--output", "svd.csv"]
        assert run([*args, "--matrix-csv", "H.csv"]) == 0
        assert run([*args, "--matrix-csv", "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "H.csv").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["H.csv", "svd.csv", "svd.json"]


class TestScenarioMapCommand:
    def test_row_count_and_envelope(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["scenario-map", "--mode", "vertical", "--source-length", 400,
                    "--source-height", 400, "--receive-length", 40,
                    "--policy", "gamma", "--x-min", -300, "--x-max", 300,
                    "--x-steps", 4, "--y-min", 0, "--y-max", 300, "--y-steps", 3,
                    "--output", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,k"
        assert len(lines) == 1 + 4 * 3
        envelope = load_json((tmp_path / "map.json").read_text())
        assert envelope["rows"] == 12
        assert envelope["policy"] == "gamma"
        assert envelope["scene"]["mode"] == "vertical"

    def test_threads_deterministic(self, tmp_path):
        base = ["scenario-map", "--mode", "horizontal", "--source-length", 400,
                "--source-height", 200, "--receive-length", 40,
                "--policy", "fixed", "--phi", 0.6,
                "--x-min", -300, "--x-max", 300, "--x-steps", 3,
                "--y-min", 0, "--y-max", 200, "--y-steps", 2]
        out1 = tmp_path / "m1.csv"
        out2 = tmp_path / "m2.csv"
        run(base + ["--output", out1])
        run(base + ["--threads", 2, "--output", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_envelope_counts_statuses(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["scenario-map", "--mode", "horizontal", "--source-length", 400,
                    "--source-height", 200, "--receive-length", 40, "--policy", "hcontrol",
                    "--x-steps", 3, "--y-steps", 2, "--output", out]) == 0
        envelope = load_json((tmp_path / "map.json").read_text())
        assert envelope["status_counts"] == {"ok": 6, "excluded": 0, "failed": 0}

    @pytest.mark.parametrize("extra", [
        ["--mode", "vertical", "--source-height", 400, "--policy", "fixed", "--phi", 4],
        ["--mode", "vertical", "--source-height", 400, "--policy", "hcontrol"],
        ["--mode", "horizontal", "--source-height", 200, "--threads", 0],
    ], ids=["phi-out-of-range", "hcontrol-vertical", "threads-zero"])
    def test_bad_map_input_exits_2(self, tmp_path, capsys, extra):
        out = tmp_path / "map.csv"
        assert run(["scenario-map", "--source-length", 400, "--receive-length", 40,
                    "--x-steps", 3, "--y-steps", 2, *extra, "--output", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "source_length": 400.0, "rho": 20.0, "distance": 300.0,
            "theta": math.pi / 2, "direction": "z", "samples": 5,
        }))
        out1 = tmp_path / "from_config.csv"
        assert run(["bandwidth-profile", "--config", config, "--output", out1]) == 0
        assert len(out1.read_text().splitlines()) == 6
        out2 = tmp_path / "override.csv"
        assert run(["bandwidth-profile", "--config", config, "--samples", 3,
                    "--output", out2]) == 0
        assert len(out2.read_text().splitlines()) == 4

    @pytest.mark.parametrize("command, options", [
        ("bandwidth-profile", {"source_length": 50.0, "rho": 2.5, "distance": 37.5,
                               "theta": 60.0, "direction": "x", "samples": 7}),
        ("scenario-map", {"mode": "horizontal", "source_length": 50.0, "source_height": 25.0,
                          "receive_length": 5.0, "policy": "fixed", "phi": 30.0,
                          "x_min": -40.0, "x_max": 40.0, "x_steps": 3,
                          "y_max": 30.0, "y_steps": 2}),
    ])
    def test_config_converted_like_flags(self, tmp_path, command, options):
        # lengths in metres under --wavelength, angles in degrees under --degrees
        options = {**options, "wavelength": 0.125, "degrees": True}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(options))
        flags = []
        for key, value in options.items():
            flags += ["--" + key.replace("_", "-")] + ([] if value is True else [value])
        out_config = tmp_path / "config.csv"
        out_flags = tmp_path / "flags.csv"
        assert run([command, "--config", config, "--output", out_config]) == 0
        assert run([command, *flags, "--output", out_flags]) == 0
        assert out_config.read_bytes() == out_flags.read_bytes()

    @pytest.mark.parametrize("command", ["bandwidth-profile", "region-boundary", "channel-svd"])
    def test_config_choice_checked(self, tmp_path, capsys, command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "source_length": 400.0, "rho": 20.0, "distance": 8000.0,
            "delta_s": 0.5, "delta_r": 0.5, "direction": "w",
        }))
        assert run([command, "--config", config, "--output", tmp_path / "out.csv"]) == 2
        assert "--direction must be one of x, y, z; got 'w'" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run(["bandwidth-profile", "--config", tmp_path / "nope.json",
                    "--direction", "z"]) == 2


class TestWavelengthCheck:
    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command", [
        ["k-number", *ASSEMBLY, "--direction", "z"],
        ["region-boundary", "-L", 400, "--rho", 20, "--direction", "z"],
    ], ids=["k-number", "region-boundary"])
    def test_non_finite_wavelength_exits_2(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        assert run([*command, "--wavelength", value, "--output", out]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: wavelength must be positive and finite, got {value}\n"


class TestOutputWriter:
    """Each output is formatted whole, then written over any old file in place."""

    PROFILE = ["bandwidth-profile", *ASSEMBLY, "--direction", "y", "--samples", 3]
    PROFILE_CSV = b"l,w\n0.0,0.0\n10.0,0.0055904815825671\n20.0,0.011134132961602802\n"

    def test_stdout(self, capsys):
        assert run([*self.PROFILE, "--output", "-"]) == 0
        assert capsys.readouterr().out.encode() == self.PROFILE_CSV

    def test_rewrite_over_longer_file(self, tmp_path):
        out = tmp_path / "w.csv"
        out.write_bytes(b"x" * 10_000)
        assert run([*self.PROFILE, "--output", out]) == 0
        assert out.read_bytes() == self.PROFILE_CSV

    def test_dev_null(self):
        assert run([*self.PROFILE, "--output", os.devnull]) == 0

    def test_argument_error_leaves_old_file(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        out.write_bytes(b"old contents\n")
        assert run(["bandwidth-profile", *ASSEMBLY, "--direction", "y", "--samples", 1,
                    "--output", out]) == 2
        assert out.read_bytes() == b"old contents\n"
        assert "samples must be at least 2" in capsys.readouterr().err

    def test_channel_svd_bytes(self, tmp_path):
        out = tmp_path / "svd.csv"
        assert run(["channel-svd", "-L", 4, "--rho", 1, "-r", 10, "--delta-s", 1,
                    "--delta-r", 0.5, "--output", out]) == 0
        assert out.read_text() == (
            "index,sigma,sigma_maxnorm,sigma_sumnorm\n"
            "0,0.4197403460821714,1.0,0.563697777326805\n"
            "1,0.25216938601860694,0.6007747131585974,0.33865537048165023\n"
            "2,0.06507665806764112,0.15504027352877162,0.08739585758430846\n"
            "3,0.007296865891382425,0.017384237563748368,0.009799456075206108\n"
            "4,0.0003362243871220493,0.0008010294703865031,0.00045153853203013964\n"
        )
        assert (tmp_path / "svd.json").read_text() == (
            '{\n  "n_t": 5,\n  "n_r": 5,\n  "usable_count": 2\n}\n'
        )

    def test_region_boundary_bytes(self, tmp_path):
        # one endfire ncsmr angle with two roots; root_index is an integer column
        out = tmp_path / "b.csv"
        assert run(["region-boundary", "-L", 400, "--rho", 20, "--direction", "x",
                    "--kind", "ncsmr", "--theta-min", 0, "--theta-max", 0,
                    "--theta-steps", 1, "--output", out]) == 0
        assert out.read_text() == (
            "theta,radius,root_index\n"
            "0.0,199.49968710876348,0\n"
            "0.0,446.3172876215531,1\n"
        )

    def test_scenario_map_bytes(self, tmp_path):
        # the point below a low source is excluded and written as nan
        out = tmp_path / "map.csv"
        assert run(["scenario-map", "--mode", "horizontal", "-L", 40, "--source-height", 0.5,
                    "--receive-length", 4, "--x-min", -2, "--x-max", 2, "--x-steps", 3,
                    "--y-min", 0, "--y-max", 2, "--y-steps", 2, "--output", out]) == 0
        assert out.read_text() == (
            "x,y,k\n"
            "-2.0,0.0,7.997397174733486\n"
            "-2.0,2.0,7.956113135990131\n"
            "0.0,0.0,nan\n"
            "0.0,2.0,7.957417723981829\n"
            "2.0,0.0,7.997397174733486\n"
            "2.0,2.0,7.956113135990131\n"
        )
        envelope = load_json((tmp_path / "map.json").read_text())
        assert envelope["status_counts"] == {"ok": 5, "excluded": 1, "failed": 0}


class TestSidecarOutput:
    """A command with a JSON sidecar names it after the CSV, so it needs a file path."""

    @pytest.mark.parametrize("args", [
        ["channel-svd", "-L", 4, "--rho", 1, "-r", 10, "--delta-s", 1, "--delta-r", 0.5],
        ["scenario-map", "--mode", "vertical", "-L", 40, "--source-height", 40,
         "--receive-length", 4, "--x-steps", 2, "--y-steps", 2],
    ], ids=["channel-svd", "scenario-map"])
    def test_stdout_rejected(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        assert run([*args, "-o", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sidecar" in err
        assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_argument_error_distinct(self, capsys):
        assert run(["k-number", *ASSEMBLY, "--direction", "generic"]) == 2
        capsys.readouterr()


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert run(["verify", "--draws", 8, "--seed", 1]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        # the sandwich line reports its real margin, about -1e-9 when it holds
        sandwich = next(line for line in out.splitlines() if "sandwich" in line)
        assert float(sandwich.split("worst ")[1].split()[0]) < 0.0

    def test_negative_draws_exit_2(self, capsys):
        assert run(["verify", "--draws", -3]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "draws" in captured.err

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_matches_the_per_draw_reference(self, capsys, seed):
        code = run(["verify", "--draws", 25, "--seed", seed])
        assert capsys.readouterr().out == reference_verify(25, seed)
        assert code == 0

    @pytest.mark.parametrize("name", ["k_exact", "_spread"])
    def test_nan_fails(self, monkeypatch, capsys, name):
        # k_exact: the exact K of the reports the sandwich check reads
        import losdof.cli as cli

        target = "_reports" if name == "k_exact" else name
        real = getattr(cli, target)

        def nan_k(*args):
            k, *rest = real(*args)
            return (np.full_like(k, math.nan), *rest)

        def nan_spread(*args):
            spread, distance = real(*args)
            return np.full_like(spread, math.nan), distance

        monkeypatch.setattr(cli, target, nan_k if name == "k_exact" else nan_spread)
        assert run(["verify", "--draws", 2, "--seed", 1]) == 3
        out = capsys.readouterr().out
        assert out.count("FAIL") == 1 and "worst inf" in out
