import json
import math

import numpy as np
import pytest

from zollfins import cli
from zollfins.cli import main


def read(path):
    return path.read_bytes()


# -- curvature ---------------------------------------------------------------------

def test_curvature_ok(tmp_path, capsys):
    code = main(["--h", "0.25,-0.25", "--out", str(tmp_path), "curvature"])
    assert code == 0
    out = capsys.readouterr().out
    assert "min G = 0.5" in out and "x = -1" in out
    text = (tmp_path / "curvature.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "x,G"
    x0, g0 = lines[1].split(",")
    assert float(x0) == -1.0 and float(g0) == 0.5


def test_curvature_violation_exit_2(tmp_path, capsys):
    code = main(["--h", "0.6,-0.6", "--out", str(tmp_path), "curvature"])
    assert code == 2
    out = capsys.readouterr().out
    assert "-0.19999999999999" in out    # witness G(-1) = -0.2


def test_curvature_round_sphere_constant(tmp_path):
    code = main(["--h", "0", "--out", str(tmp_path), "curvature",
                 "--samples", "32"])
    assert code == 0
    rows = (tmp_path / "curvature.csv").read_text().strip().splitlines()[1:]
    assert all(float(row.split(",")[1]) == 1.0 for row in rows)


def test_bad_profile_exit_1(tmp_path, capsys):
    assert main(["--h", "0.3,0.3", "--out", str(tmp_path), "curvature"]) == 1
    assert "error" in capsys.readouterr().err


def test_non_finite_profile_exit_1(tmp_path, capsys):
    for h in ("nan,nan", "inf,-inf"):
        assert main([f"--h={h}", "--out", str(tmp_path), "curvature"]) == 1
        assert "error" in capsys.readouterr().err


def test_non_finite_arguments_exit_1(tmp_path, capsys):
    """NaN or infinite numbers on the command line end in a typed error:
    exit 1, a message, no traceback."""
    for argv in (["geodesic", "--side", "zoll", "--c=nan"],
                 ["geodesic", "--side", "zoll", "--c=nan", "--r0", "1.0"],
                 ["geodesic", "--side", "finsler", "--dir=nan"],
                 ["geodesic", "--side", "finsler", "--start=nan,0"],
                 ["geodesic", "--side", "zoll", "--r0=inf"],
                 ["geodesic", "--side", "zoll", "--r0=nan"],
                 ["geodesic", "--side", "zoll", "--theta0=nan"],
                 ["geodesic", "--side", "zoll", "--theta0=inf"],
                 ["geodesic", "--side", "finsler", "--start=0.2,nan"],
                 ["geodesic", "--side", "finsler", "--start=0.2,inf"],
                 ["geodesic", "--side", "finsler", "--dir=inf"],
                 ["indicatrix", "--R=0.3", "--plot-size=0"],
                 ["indicatrix", "--R=0.3", "--plot-size=-5"],
                 ["indicatrix", "--R=inf"]):
        assert main(["--h", "0.25,-0.25", "--out", str(tmp_path)] + argv) == 1, argv
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err, argv


def test_zoll_latitude_outside_band_exit_1(tmp_path, capsys):
    """--r0 outside [0, pi] is refused, not read modulo 2 pi."""
    assert main(["--h=1,-2,1", "--out", str(tmp_path), "geodesic", "--side", "zoll",
                 "--c=0.5", "--r0=7"]) == 1
    assert capsys.readouterr().err == "error: latitude 7.0 outside [0, pi]\n"
    assert not list(tmp_path.iterdir())


# -- indicatrix --------------------------------------------------------------------

def test_indicatrix_outputs(tmp_path):
    code = main(["--h", "0.45,-0.45", "--out", str(tmp_path), "indicatrix",
                 "--R", "0.2,0.6,1.0,1.3", "--samples", "128"])
    assert code == 0
    for tag in ("0.2", "0.6", "1", "1.3"):
        path = tmp_path / f"indicatrix_R{tag}.csv"
        assert path.exists()
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "R,Theta,branch,r,v1,v2"
        assert len(lines) == 1 + 2 * 128 - 2
    svg = (tmp_path / "indicatrices.svg").read_text()
    assert svg.startswith("<svg ") and svg.count("<polyline") == 4


def test_indicatrix_ellipse_content(tmp_path):
    r_val = math.pi / 3
    main(["--h", "0", "--out", str(tmp_path), "indicatrix",
          "--R", format(r_val, ".17g"), "--samples", "64"])
    path = next(tmp_path.glob("indicatrix_R*.csv"))
    rows = [row.split(",") for row in path.read_text().strip().splitlines()[1:]]
    for row in rows:
        v1, v2 = float(row[4]), float(row[5])
        assert abs(v1 ** 2 + 0.25 * v2 ** 2 - 1.0) < 1e-10


def test_indicatrix_convexity_exit_2(tmp_path, capsys):
    code = main(["--h", "0.6,-0.6", "--out", str(tmp_path), "indicatrix",
                 "--R", "0.15", "--samples", "256"])
    assert code == 2
    assert "convexity" in capsys.readouterr().out


def test_indicatrix_requires_R(tmp_path):
    assert main(["--h", "0", "--out", str(tmp_path), "indicatrix"]) == 1


# -- geodesic -----------------------------------------------------------------------

def test_zoll_geodesic_trace(tmp_path):
    code = main(["--h", "0.25,-0.25", "--out", str(tmp_path), "geodesic",
                 "--side", "zoll", "--c", "0.5", "--t-end", "6.2832"])
    assert code == 0
    lines = (tmp_path / "geodesic_zoll.csv").read_text().strip().splitlines()
    assert lines[0] == "t,r,theta,c,sign"
    first = [float(tok) for tok in lines[1].split(",")]
    last = [float(tok) for tok in lines[-1].split(",")]
    # t_end ~ 2 pi: the trace closes (2 pi - 6.2832 from the rounded flag).
    assert math.hypot(last[1] - first[1],
                      (last[2] - first[2] + math.pi) % (2 * math.pi) - math.pi) < 1e-3


def test_zoll_meridian_trace(tmp_path):
    code = main(["--h", "1,-2,1", "--out", str(tmp_path), "geodesic",
                 "--side", "zoll", "--c", "0", "--r0", "0.5", "--t-end", "2.0"])
    assert code == 0
    rows = [[float(t) for t in row.split(",")]
            for row in (tmp_path / "geodesic_zoll.csv").read_text().strip().splitlines()[1:]]
    assert all(row[3] == 0.0 for row in rows)


def test_finsler_geodesic_trace(tmp_path):
    code = main(["--h", "0.25,-0.25", "--out", str(tmp_path), "geodesic",
                 "--side", "finsler", "--start", "0.2,0", "--dir", "0.3",
                 "--t-end", format(2 * math.pi, ".17g"), "--samples", "64"])
    assert code == 0
    lines = (tmp_path / "geodesic_finsler.csv").read_text().strip().splitlines()
    assert lines[0] == "t,R,Theta,vR,vTheta,F"
    f_vals = [float(row.split(",")[5]) for row in lines[1:]]
    assert max(abs(f - 1.0) for f in f_vals) < 1e-5
    first = [float(tok) for tok in lines[1].split(",")]
    last = [float(tok) for tok in lines[-1].split(",")]
    assert math.hypot(last[1] - first[1],
                      (last[2] - first[2] + math.pi) % (2 * math.pi) - math.pi) < 1e-3


def test_finsler_chart_exit_partial_trace(tmp_path, capsys):
    code = main(["--h", "0", "--out", str(tmp_path), "geodesic",
                 "--side", "finsler", "--start", "1.4,0", "--dir", "0",
                 "--t-end", "6.2831853071795862"])
    assert code == 0
    assert "chart exit" in capsys.readouterr().err
    assert (tmp_path / "geodesic_finsler.csv").exists()


def test_finsler_start_off_chart_exit_1(tmp_path, capsys):
    """A start outside the working chart has no partial trace: exit 1 with
    the error, and no file."""
    assert main(["--h", "1,-2,1", "--out", str(tmp_path), "geodesic",
                 "--side", "finsler", "--start=1.5707,0"]) == 1
    assert capsys.readouterr().err == \
        "error: start point R=1.5707 outside the working chart\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("c", ["--c=0.5,0.3", "--c="])
def test_c_is_one_float(tmp_path, capsys, c):
    with pytest.raises(SystemExit) as excinfo:
        main(["--out", str(tmp_path), "geodesic", "--side", "zoll", c])
    assert excinfo.value.code == 2
    assert "argument --c: invalid float value" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_c_config_value_is_one_float(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 0.5,0.3\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "geodesic", "--side", "zoll"]) == 1
    assert "bad config value for 'c': '0.5,0.3'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg.write_text("c = 0\nr0 = 0.5\nt-end = 2.0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "geodesic", "--side", "zoll"]) == 0
    rows = (tmp_path / "out" / "geodesic_zoll.csv").read_text().strip().splitlines()[1:]
    assert all(row.split(",")[3] == "0" for row in rows)


@pytest.mark.parametrize("command", [["verify"], ["indicatrix", "--R=0.3"],
                                     ["curvature"], ["geodesic"]])
def test_samples_upper_bound_exit_1(tmp_path, capsys, monkeypatch, command):
    """The bound is checked before any work: no subcommand runs."""
    def refuse(*args):
        raise AssertionError("a subcommand ran")

    for name in ("cmd_curvature", "cmd_indicatrix", "cmd_geodesic", "cmd_verify"):
        monkeypatch.setattr(cli, name, refuse)
    for samples in (cli.MAX_SAMPLES + 1, 10 ** 12):
        assert main(["--out", str(tmp_path), "--samples", str(samples)] + command) == 1
        assert capsys.readouterr().err == \
            f"error: sample count {samples} outside [16, {cli.MAX_SAMPLES}]\n"
    assert not list(tmp_path.iterdir())


# -- verify --------------------------------------------------------------------------

def test_verify_pass(tmp_path, capsys):
    code = main(["--h", "0.25,-0.25", "--out", str(tmp_path), "verify",
                 "--samples", "128"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert all(c["status"] in ("pass", "skip") for c in report["checks"])
    out = capsys.readouterr().out
    assert "PASS closure_integrals" in out


def test_verify_failure_exit_3(tmp_path):
    code = main(["--h", "0.6,-0.6", "--out", str(tmp_path), "verify",
                 "--samples", "128"])
    assert code == 3
    report = json.loads((tmp_path / "report.json").read_text())
    names = {c["name"]: c["status"] for c in report["checks"]}
    assert names["gauss_curvature_positive"] == "fail"
    assert names["indicatrix_convexity"] == "fail"
    assert names["closure_integrals"] == "skip"
    assert names["finsler_closure"] == "skip"


# -- config file, determinism, formatting ----------------------------------------------

def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 0.25,-0.25\nsamples = 32\n# comment\nout = {}\n".format(tmp_path / "cfgout"))
    code = main(["--config", str(cfg), "--samples", "48", "curvature"])
    assert code == 0
    rows = (tmp_path / "cfgout" / "curvature.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 48          # flag value beat the config value


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["--config", str(cfg), "curvature"]) == 1


def test_byte_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--h", "0.45,-0.45", "--out", str(out), "indicatrix",
                     "--R", "0.2,0.9", "--samples", "64"]) == 0
        assert main(["--h", "0.45,-0.45", "--out", str(out), "curvature",
                     "--samples", "64"]) == 0
        assert main(["--h", "0.45,-0.45", "--out", str(out), "verify",
                     "--samples", "64"]) == 0
    for name in ("indicatrix_R0.2.csv", "indicatrix_R0.9.csv",
                 "indicatrices.svg", "curvature.csv", "report.json"):
        assert read(out_a / name) == read(out_b / name), name


def test_seventeen_digit_round_trip(tmp_path):
    main(["--h", "0.45,-0.45", "--out", str(tmp_path), "indicatrix",
          "--R", "0.7", "--samples", "32"])
    rows = (tmp_path / "indicatrix_R0.7.csv").read_text().strip().splitlines()[1:]
    from zollfins import indicatrix_curve, example1
    curve = indicatrix_curve(example1(0.45), 0.7, 32)
    for row, sample in zip(rows, curve):
        toks = row.split(",")
        assert float(toks[4]) == sample.v1      # 17 significant digits round-trip
        assert float(toks[5]) == sample.v2


@pytest.mark.parametrize("side", ["zoll", "finsler"])
@pytest.mark.parametrize("t_end", ["nan", "inf", "1e300"])
def test_geodesic_bad_t_end_exit_1(tmp_path, capsys, side, t_end):
    code = main(["--h", "1,-2,1", "--out", str(tmp_path), "geodesic",
                 "--side", side, f"--t-end={t_end}"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: t_end")
    assert not list(tmp_path.iterdir())


def test_tolerance_bounds(tmp_path):
    assert main(["--h", "0", "--out", str(tmp_path), "--samples", "4",
                 "curvature"]) == 1


@pytest.mark.parametrize("before", [True, False])
def test_tol_flag_refused(tmp_path, capsys, before):
    """Finsler traces are in closed form, so no flag sets a tolerance:
    --tol is an unknown option before or after the subcommand."""
    flags = ["--tol", "1e-9"]
    argv = (["--out", str(tmp_path)] + (flags if before else [])
            + ["geodesic", "--side", "finsler"] + ([] if before else flags))
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "zollfins: error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_tol_config_line_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-9\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "geodesic", "--side", "finsler"]) == 1
    assert "unknown config key: 'tol'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_indicatrix_csv_rows_satisfy_octic(tmp_path):
    """Rows written for the quintic profile satisfy its degree-8 implicit
    identity when read back from disk."""
    from zollfins import example2, implicit_residual
    code = main(["--h", "1,-2,1", "--out", str(tmp_path), "indicatrix",
                 "--R", "0.5", "--samples", "200"])
    assert code == 0
    prof = example2()
    rows = (tmp_path / "indicatrix_R0.5.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        toks = row.split(",")
        v1, v2 = float(toks[4]), float(toks[5])
        assert abs(implicit_residual(prof, 0.5, v1, v2)) < 1e-8


def test_verify_round_sphere(tmp_path):
    code = main(["--h", "0", "--out", str(tmp_path), "verify",
                 "--samples", "128"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["invariants"]["status"] == "pass"
    assert by_name["invariants"]["measured"] <= 1e-12
    assert by_name["ellipse_degeneration"]["status"] == "pass"


# -- writers against their row-by-row reference -----------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def reference_indicatrix_csv(samples):
    lines = ["R,Theta,branch,r,v1,v2"]
    lines += [f"{_fmt(s.R)},{_fmt(s.Theta)},{s.branch},{_fmt(s.r)},{_fmt(s.v1)},{_fmt(s.v2)}"
              for s in samples]
    return "\n".join(lines) + "\n"


def reference_zoll_trace_csv(trace):
    lines = ["t,r,theta,c,sign"]
    lines += [f"{_fmt(trace.t[k])},{_fmt(trace.r[k])},"
              f"{_fmt(trace.theta[k] % (2 * math.pi))},{_fmt(trace.c)},{int(trace.sign[k])}"
              for k in range(len(trace.t))]
    return "\n".join(lines) + "\n"


def reference_finsler_trace_csv(trace):
    lines = ["t,R,Theta,vR,vTheta,F"]
    lines += [f"{_fmt(trace.t[k])},{_fmt(trace.R[k])},{_fmt(trace.Theta[k])},"
              f"{_fmt(trace.vR[k])},{_fmt(trace.vTheta[k])},{_fmt(trace.F[k])}"
              for k in range(len(trace.t))]
    return "\n".join(lines) + "\n"


def reference_curvature_csv(xs, gs):
    lines = ["x,G"]
    lines += [f"{_fmt(x)},{_fmt(g)}" for x, g in zip(xs, gs)]
    return "\n".join(lines) + "\n"


def reference_indicatrices_svg(curves, size=640):
    from zollfins.cli import PALETTE
    extent = 0.0
    for _, samples in curves:
        for s in samples:
            extent = max(extent, abs(s.v1), abs(s.v2))
    half = math.ceil(extent * 1.08 * 20.0) / 20.0 or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{-half} {-half} {2 * half} {2 * half}">',
        f'<g transform="scale(1,-1)">',
        f'<line x1="{-half}" y1="0" x2="{half}" y2="0" '
        f'stroke="#999999" stroke-width="{half / 200}"/>',
        f'<line x1="0" y1="{-half}" x2="0" y2="{half}" '
        f'stroke="#999999" stroke-width="{half / 200}"/>',
    ]
    for k, (r_value, samples) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{format(s.v1, '.10g')},{format(s.v2, '.10g')}"
                       for s in samples)
        first = samples[0]
        pts += f" {format(first.v1, '.10g')},{format(first.v2, '.10g')}"
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="{half / 100}"/>')
    parts.append("</g>")
    for k, (r_value, _) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        y = -half + (k + 1) * half / 12
        parts.append(f'<text x="{-half + half / 20}" y="{y}" fill="{color}" '
                     f'font-size="{half / 16}" font-family="monospace">'
                     f'R={format(r_value, ".6g")}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("h", ["0", "0.45,-0.45", "1,-2,1"])
def test_writers_match_row_by_row_reference(h):
    """The column writers return the same strings as one f-string per row,
    reading each sample through the IndicatrixCurve sequence view."""
    from zollfins import (GeodesicState, ZollProfile, finsler_geodesic,
                          indicatrix_curve, integrate_geodesic, unit_direction)
    from zollfins.profile import curvature_x
    prof = ZollProfile.from_string(h)
    r_values = (-1.3, 0.0, 0.7, 1.5600000100725198)
    for samples in (16, 512):
        curves = [(R, indicatrix_curve(prof, R, samples)) for R in r_values]
        for _, curve in curves:
            assert cli.indicatrix_csv(curve) == reference_indicatrix_csv(curve)
        assert cli.indicatrices_svg(curves) == reference_indicatrices_svg(curves)
    zoll = integrate_geodesic(prof, GeodesicState(0.6, 0.3, 0.5, +1), 4 * math.pi)
    assert cli.zoll_trace_csv(zoll) == reference_zoll_trace_csv(zoll)
    v0 = unit_direction(prof, 0.2, 0.0, 0.9)
    fin = finsler_geodesic(prof, (0.2, 0.0), v0, 2 * math.pi)
    assert cli.finsler_trace_csv(fin) == reference_finsler_trace_csv(fin)
    xs = np.linspace(-1.0, 1.0, 64)
    gs = np.asarray(curvature_x(prof, xs))
    assert cli.curvature_csv(xs, gs) == reference_curvature_csv(xs, gs)
