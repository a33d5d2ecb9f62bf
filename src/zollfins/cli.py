"""Command-line front end.

Subcommands
-----------
curvature   scan the Gauss curvature over x = cos r; exit 2 when G <= 0
            somewhere (the witness is printed).
indicatrix  emit per-R indicatrix curves as CSV plus a combined SVG plot;
            exit 2 on a convexity violation.
geodesic    emit a geodesic trace CSV, on the surface (--side zoll) or on
            the manifold of geodesics (--side finsler).
verify      run the cross-module verification suites; exit 3 if any check
            fails.

All numeric output uses 17 significant digits; files are written atomically
(temp file + rename), and repeated runs with the same configuration produce
byte-identical outputs.  Indicatrix curves come as arrays, and the writers
format each number once, column by column.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import finsler, geodesics, moduli
from .errors import (ChartExitError, ConvexityViolation, ProfileError,
                     ZollfinsError)
from .profile import ZollProfile, check_positive_curvature, curvature_x
from .verify import run_verification

#: Largest --samples.  On a 2-CPU VM verify takes 4.2 s there, and an
#: indicatrix run at one chart value 0.35 s and 101 MB.
MAX_SAMPLES = 65536

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#e377c2")


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- output writers -------------------------------------------------------------

def _column(values, spec: str = ".17g") -> list[str]:
    return [format(x, spec) for x in np.asarray(values, dtype=float).tolist()]


def _csv(header: str, *columns: list[str]) -> str:
    return "\n".join([header] + [",".join(row) for row in zip(*columns)]) + "\n"


def _curve_column(values, spec: str = ".17g", sign: str = "") -> list[str]:
    """A column of an IndicatrixCurve, formatted on its branch +1 half only:
    v1 > 0 there, so -v1 of the mirrored half is the same digits after a "-"."""
    half = _column(values[:(len(values) + 2) // 2], spec)
    return half + [sign + text for text in half[-2:0:-1]]


def curvature_csv(xs, gs) -> str:
    return _csv("x,G", _column(xs), _column(gs))


def indicatrix_csv(curve) -> str:
    m = len(curve)
    return _csv("R,Theta,branch,r,v1,v2", [fmt(curve.R)] * m,
                [fmt(curve.Theta)] * m, [str(b) for b in curve.branch.tolist()],
                _curve_column(curve.r), _curve_column(curve.v1, sign="-"),
                _curve_column(curve.v2))


def zoll_trace_csv(trace) -> str:
    return _csv("t,r,theta,c,sign", _column(trace.t), _column(trace.r),
                _column(np.remainder(trace.theta, geodesics.TWO_PI)),
                [fmt(trace.c)] * len(trace.t), [str(s) for s in trace.sign.tolist()])


def finsler_trace_csv(trace) -> str:
    return _csv("t,R,Theta,vR,vTheta,F", *(_column(a) for a in (
        trace.t, trace.R, trace.Theta, trace.vR, trace.vTheta, trace.F)))


def indicatrices_svg(curves: list[tuple[float, moduli.IndicatrixCurve]],
                     size: int = 640) -> str:
    """Deterministic standalone SVG with one polyline per IndicatrixCurve."""
    extent = max((float(np.max(np.abs(a))) for _, curve in curves
                  for a in (curve.v1, curve.v2)), default=0.0)
    half = math.ceil(extent * 1.08 * 20.0) / 20.0 or 1.0
    # Math orientation: y up.  viewBox spans [-half, half]^2.
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{-half} {-half} {2 * half} {2 * half}">',
        f'<g transform="scale(1,-1)">',
        f'<line x1="{-half}" y1="0" x2="{half}" y2="0" '
        f'stroke="#999999" stroke-width="{half / 200}"/>',
        f'<line x1="0" y1="{-half}" x2="0" y2="{half}" '
        f'stroke="#999999" stroke-width="{half / 200}"/>',
    ]
    for k, (r_value, curve) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        v1 = _curve_column(curve.v1, ".10g", "-")
        v2 = _curve_column(curve.v2, ".10g")
        pts = " ".join(f"{a},{b}" for a, b in zip(v1 + v1[:1], v2 + v2[:1]))
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


# -- subcommands ------------------------------------------------------------------

def cmd_curvature(profile: ZollProfile, args) -> int:
    xs = np.linspace(-1.0, 1.0, args.samples)
    gs = np.asarray(curvature_x(profile, xs))
    out = Path(args.out) / "curvature.csv"
    atomic_write(out, curvature_csv(xs, gs))
    ok, (x_min, g_min) = check_positive_curvature(profile)
    if not ok:
        print(f"curvature violation: G({fmt(x_min)}) = {fmt(g_min)} <= 0")
        return 2
    print(f"wrote {out}; min G = {fmt(g_min)} at x = {fmt(x_min)}")
    return 0


def cmd_indicatrix(profile: ZollProfile, args) -> int:
    if not args.R:
        print("indicatrix requires --R", file=sys.stderr)
        return 1
    r_values = args.R
    try:
        curves = [moduli.indicatrix_curve(profile, r_value, args.samples)
                  for r_value in r_values]
    except ConvexityViolation as exc:
        print(f"convexity violation: {exc}")
        return 2
    out_dir = Path(args.out)
    for r_value, curve in zip(r_values, curves):
        path = out_dir / f"indicatrix_R{format(r_value, 'g')}.csv"
        atomic_write(path, indicatrix_csv(curve))
    atomic_write(out_dir / "indicatrices.svg",
                 indicatrices_svg(list(zip(r_values, curves)), size=args.plot_size))
    print(f"wrote {len(r_values)} curve file(s) and indicatrices.svg in {out_dir}")
    return 0


def cmd_geodesic(profile: ZollProfile, args) -> int:
    out_dir = Path(args.out)
    if args.side == "zoll":
        c = 0.5 if args.c is None else args.c
        r0 = args.r0 if args.r0 is not None else \
            (math.pi / 2 if abs(c) >= 1.0 else geodesics.turning_latitude(c))
        state = geodesics.GeodesicState(r0, args.theta0, c, +1)
        trace = geodesics.integrate_geodesic(profile, state, args.t_end,
                                             samples_per_period=args.samples)
        path = out_dir / "geodesic_zoll.csv"
        atomic_write(path, zoll_trace_csv(trace))
        print(f"wrote {path}")
        return 0

    start = args.start or (0.2, 0.0)
    v0 = finsler.unit_direction(profile, start[0], start[1], args.direction)
    try:
        trace = finsler.finsler_geodesic(profile, start, v0, args.t_end,
                                         samples_per_period=args.samples)
    except ChartExitError as exc:
        if exc.partial_trace is None:       # the start itself is off the chart
            raise
        path = out_dir / "geodesic_finsler.csv"
        atomic_write(path, finsler_trace_csv(exc.partial_trace))
        print(f"chart exit: {exc}; partial trace written to {path}",
              file=sys.stderr)
        return 0
    path = out_dir / "geodesic_finsler.csv"
    atomic_write(path, finsler_trace_csv(trace))
    print(f"wrote {path}")
    return 0


def cmd_verify(profile: ZollProfile, args) -> int:
    report = run_verification(profile, samples=args.samples // 8 or 8)
    for line in report.lines():
        print(line)
    out = Path(args.out) / "report.json"
    atomic_write(out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if report.passed else 3


# -- argument handling ---------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _pair(text: str) -> tuple[float, float]:
    vals = _float_list(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated floats: {text!r}")
    return vals[0], vals[1]


def _add_common(parser: argparse.ArgumentParser, suppress: bool):
    # The same flags are accepted before and after the subcommand; the
    # after-subcommand copies use SUPPRESS so they never clobber values that
    # were already parsed at the top level.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--h", default=default, metavar="COEFFS",
                        help="odd profile coefficients, ascending, e.g. 0.25,-0.25")
    parser.add_argument("--out", default=default, help="output directory")
    parser.add_argument("--samples", type=int, default=default,
                        help=f"sample count / trace density (16 to {MAX_SAMPLES})")
    parser.add_argument("--config", default=default,
                        help="key=value config file; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zollfins",
        description="Rotationally symmetric Zoll spheres and the induced "
                    "constant-curvature Finsler metrics on their spaces of geodesics.")
    _add_common(parser, suppress=False)

    sub = parser.add_subparsers(dest="command", required=True)
    p_cur = sub.add_parser("curvature", help="scan the Gauss curvature")
    _add_common(p_cur, suppress=True)

    p_ind = sub.add_parser("indicatrix", help="emit indicatrix curves")
    _add_common(p_ind, suppress=True)
    p_ind.add_argument("--R", type=_float_list, default=None,
                       help="chart values, comma separated")
    p_ind.add_argument("--plot-size", type=int, default=640,
                       help="SVG width/height in pixels")

    p_geo = sub.add_parser("geodesic", help="emit a geodesic trace")
    _add_common(p_geo, suppress=True)
    p_geo.add_argument("--side", choices=("zoll", "finsler"), default="zoll")
    p_geo.add_argument("--c", type=float, default=None,
                       help="Clairaut constant (zoll side)")
    p_geo.add_argument("--r0", type=float, default=None,
                       help="initial latitude (zoll side; default: turning point)")
    p_geo.add_argument("--theta0", type=float, default=0.0)
    p_geo.add_argument("--start", type=_pair, default=None,
                       help="chart start point R,Theta (finsler side)")
    p_geo.add_argument("--dir", dest="direction", type=float, default=0.3,
                       help="initial chart direction angle (finsler side)")
    p_geo.add_argument("--t-end", dest="t_end", type=float, default=2 * math.pi)

    p_ver = sub.add_parser("verify", help="run the verification suites")
    _add_common(p_ver, suppress=True)
    return parser


#: config keys -> (attribute, parser); flags win over config values.
_CONFIG_KEYS = {
    "h": ("h", str),
    "out": ("out", str),
    "samples": ("samples", int),
    "R": ("R", _float_list),
    "c": ("c", float),
    "side": ("side", str),
    "start": ("start", _pair),
    "dir": ("direction", float),
    "t-end": ("t_end", float),
    "plot-size": ("plot_size", int),
    "theta0": ("theta0", float),
    "r0": ("r0", float),
}

_DEFAULTS = {"h": "0", "out": ".", "samples": 512}


def merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if args.config:
        for raw in Path(args.config).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ProfileError(f"bad config line: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ProfileError(f"unknown config key: {key!r}")
            attr, parse = _CONFIG_KEYS[key]
            if getattr(args, attr, None) is None:
                try:
                    setattr(args, attr, parse(value))
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ProfileError(f"bad config value for {key!r}: {value!r}") from exc
    for attr, value in _DEFAULTS.items():
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)
    if not 16 <= args.samples <= MAX_SAMPLES:
        raise ProfileError(f"sample count {args.samples} outside [16, {MAX_SAMPLES}]")
    if getattr(args, "plot_size", 1) < 1:
        raise ProfileError(f"plot size {args.plot_size} below 1")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = merge_config(args)
        profile = ZollProfile.from_string(args.h)
    except (ProfileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    handler = {"curvature": cmd_curvature, "indicatrix": cmd_indicatrix,
               "geodesic": cmd_geodesic, "verify": cmd_verify}[args.command]
    try:
        return handler(profile, args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except ZollfinsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
