"""Command-line front end.

Subcommands
-----------
curvature   scan the Gauss curvature over x = cos r; exit 2 when G <= 0
            somewhere (the witness is printed).
indicatrix  emit per-R indicatrix curves as CSV plus a combined SVG plot;
            exit 2 on a convexity violation, exit 1 when two chart values
            would share a file name (6 significant digits).
geodesic    emit a geodesic trace CSV, on the surface (--side zoll) or on
            the manifold of geodesics (--side finsler).
verify      run the cross-module verification suites; exit 3 if any check
            fails.

All numeric output uses 17 significant digits; files are written atomically
(temp file + rename), and repeated runs with the same configuration produce
byte-identical outputs.  Indicatrix curves come as arrays, and the writers
format each column in one ``%`` pass over its values.  Two columns of an
indicatrix do not depend on the chart value: v1 = sin u on the phase grid,
and branch.  One indicatrix command formats each of them once (v1 at the
CSV's and at the SVG's precision) and reuses the strings for every chart
value; the key is the array's bytes, so a reuse never changes a digit.  The
r and v2 columns change with R, so they are formatted afresh and not held.

Each option is declared once, as a row of ``OPTIONS``: its flag, which
without the dashes is also its ``--config`` key, its value parser, its
default and the subcommand that takes it.  The argument parser is built
from that table once per process and shared by every call of main (parsing
leaves it unchanged; each call's values live on the namespace it returns).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import finsler, geodesics, moduli
from .errors import (ChartExitError, ConvexityViolation, ProfileError,
                     ZollfinsError)
from .profile import ZollProfile, check_positive_curvature, curvature_x
from .verify import run_verification

#: Largest --samples.  On a 2-CPU VM verify on 1,-2,1 takes 2.1-2.2 s and
#: ~93 MB there, and an indicatrix run at one chart value 0.35 s and 101 MB.
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
    # "%.17g" % x and format(x, ".17g") are the same routine; one % over the
    # whole column saves the per-number call.
    values = tuple(np.asarray(values, dtype=float).tolist())
    return (f"%{spec}," * len(values) % values).split(",")[:-1]


def _csv(header: str, *columns: list[str]) -> str:
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def _curve_column(values, spec: str = ".17g", sign: str = "") -> list[str]:
    """A column of an IndicatrixCurve, formatted on its branch +1 half only:
    v1 > 0 there, so -v1 of the mirrored half is the same digits after a "-"."""
    half = _column(values[:(len(values) + 2) // 2], spec)
    return half + [sign + text for text in half[-2:0:-1]]


def _shared_column(columns: dict, values: np.ndarray, spec: str, sign: str = "") -> list[str]:
    """_curve_column of a column that every chart value of a command shares,
    made once per ``columns`` dict; spec "d" formats the integer branch
    column.  Keyed by the array's bytes: only a bit-equal array reuses."""
    key = (values.tobytes(), spec, sign)
    if key not in columns:
        columns[key] = ([str(b) for b in values.tolist()] if spec == "d"
                        else _curve_column(values, spec, sign))
    return columns[key]


def curvature_csv(xs, gs) -> str:
    return _csv("x,G", _column(xs), _column(gs))


def indicatrix_csv(curve, columns: dict | None = None) -> str:
    """The rows of an IndicatrixCurve; ``columns`` holds the branch and v1
    strings shared with the other chart values of a command."""
    columns = {} if columns is None else columns
    m = len(curve)
    return _csv("R,Theta,branch,r,v1,v2", [fmt(curve.R)] * m,
                [fmt(curve.Theta)] * m, _shared_column(columns, curve.branch, "d"),
                _curve_column(curve.r), _shared_column(columns, curve.v1, ".17g", "-"),
                _curve_column(curve.v2))


def zoll_trace_csv(trace) -> str:
    return _csv("t,r,theta,c,sign", _column(trace.t), _column(trace.r),
                _column(np.remainder(trace.theta, geodesics.TWO_PI)),
                [fmt(trace.c)] * len(trace.t), [str(s) for s in trace.sign.tolist()])


def finsler_trace_csv(trace) -> str:
    """The rows of a Finsler trace; the F column is 1, the norm of every
    row's velocity by construction."""
    return _csv("t,R,Theta,vR,vTheta,F", *(_column(a) for a in (
        trace.t, trace.R, trace.Theta, trace.vR, trace.vTheta)), ["1"] * len(trace.t))


def indicatrices_svg(curves: list[tuple[float, moduli.IndicatrixCurve]],
                     size: int = 640, columns: dict | None = None) -> str:
    """Deterministic standalone SVG with one polyline per IndicatrixCurve;
    ``columns`` holds v1 strings shared with the rest of a command."""
    columns = {} if columns is None else columns
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
        v1 = _shared_column(columns, curve.v1, ".10g", "-")
        v2 = _curve_column(curve.v2, ".10g")
        pts = " ".join(map(",".join, zip(v1 + v1[:1], v2 + v2[:1])))
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
    out_dir = Path(args.out)
    paths = [out_dir / f"indicatrix_R{format(r_value, 'g')}.csv" for r_value in r_values]
    clash = next((path for path in paths if paths.count(path) > 1), None)
    if clash is not None:
        print(f"error: two --R values would both write {clash.name}", file=sys.stderr)
        return 1
    try:
        curves = [moduli.indicatrix_curve(profile, r_value, args.samples)
                  for r_value in r_values]
    except ConvexityViolation as exc:
        print(f"convexity violation: {exc}")
        return 2
    columns = {}                        # v1 and branch, the same for every R
    for path, curve in zip(paths, curves):
        atomic_write(path, indicatrix_csv(curve, columns))
    atomic_write(out_dir / "indicatrices.svg",
                 indicatrices_svg(list(zip(r_values, curves)), size=args.plot_size,
                                  columns=columns))
    print(f"wrote {len(r_values)} curve file(s) and indicatrices.svg in {out_dir}")
    return 0


def cmd_geodesic(profile: ZollProfile, args) -> int:
    note = None
    if args.side == "zoll":
        c = args.c
        r0 = args.r0 if args.r0 is not None else \
            (math.pi / 2 if abs(c) >= 1.0 else geodesics.turning_latitude(c))
        state = geodesics.GeodesicState(r0, args.theta0, c, +1)
        trace = geodesics.integrate_geodesic(profile, state, args.t_end,
                                             samples_per_period=args.samples)
        path = Path(args.out) / "geodesic_zoll.csv"
        text = zoll_trace_csv(trace)
    else:
        v0 = finsler.unit_direction(profile, *args.start, args.direction)
        path = Path(args.out) / "geodesic_finsler.csv"
        try:
            trace = finsler.finsler_geodesic(profile, args.start, v0, args.t_end,
                                             samples_per_period=args.samples)
        except ChartExitError as exc:
            if exc.partial_trace is None:       # the start itself is off the chart
                raise
            trace = exc.partial_trace
            note = f"chart exit: {exc}; partial trace written to {path}"
        text = finsler_trace_csv(trace)
    atomic_write(path, text)
    if note is None:
        print(f"wrote {path}")
    else:
        print(note, file=sys.stderr)
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


class Option(NamedTuple):
    """One command-line option.  ``--name`` is its flag and ``name`` its
    config key; ``parse`` reads both.  ``default`` applies when neither sets
    it.  ``command`` is the subcommand that takes it, or "common" for an
    option accepted both before and after the subcommand."""

    name: str
    dest: str
    parse: Callable[[str], Any]
    default: Any
    command: str
    help: str
    metavar: str | None = None
    choices: tuple[str, ...] | None = None


#: Every option, declared once: the parser, the config keys and the defaults
#: all read this table.
OPTIONS = (
    Option("h", "h", str, "0", "common",
           "odd profile coefficients, ascending, e.g. 0.25,-0.25", metavar="COEFFS"),
    Option("out", "out", str, ".", "common", "output directory"),
    Option("samples", "samples", int, 512, "common",
           f"sample count / trace density (16 to {MAX_SAMPLES})"),
    Option("config", "config", str, None, "common",
           "key=value config file; explicit flags win"),
    Option("R", "R", _float_list, None, "indicatrix", "chart values, comma separated"),
    Option("plot-size", "plot_size", int, 640, "indicatrix",
           "SVG width/height in pixels (default 640)"),
    Option("side", "side", str, "zoll", "geodesic", "zoll (default) or finsler",
           choices=("zoll", "finsler")),
    Option("c", "c", float, 0.5, "geodesic", "Clairaut constant (zoll side)"),
    Option("r0", "r0", float, None, "geodesic",
           "initial latitude (zoll side; default: turning point)"),
    Option("theta0", "theta0", float, 0.0, "geodesic", "initial longitude (zoll side; default 0)"),
    Option("start", "start", _pair, (0.2, 0.0), "geodesic",
           "chart start point R,Theta (finsler side)"),
    Option("dir", "direction", float, 0.3, "geodesic",
           "initial chart direction angle (finsler side; default 0.3)"),
    Option("t-end", "t_end", float, 2 * math.pi, "geodesic", "trace length (default 2 pi)"),
)

#: Config keys: every option but --config itself.
_CONFIG_OPTIONS = {opt.name: opt for opt in OPTIONS if opt.dest != "config"}

_COMMANDS = (("curvature", "scan the Gauss curvature"),
             ("indicatrix", "emit indicatrix curves"),
             ("geodesic", "emit a geodesic trace"),
             ("verify", "run the verification suites"))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="zollfins",
        description="Rotationally symmetric Zoll spheres and the induced "
                    "constant-curvature Finsler metrics on their spaces of geodesics.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in _COMMANDS}
    for opt in OPTIONS:
        # Every flag defaults to None, so that a config value can fill it.
        # The copies of a common option after the subcommand use SUPPRESS so
        # they never clobber a value already parsed before it.
        if opt.command == "common":
            targets = [(parser, None)] + [(p, argparse.SUPPRESS) for p in commands.values()]
        else:
            targets = [(commands[opt.command], None)]
        for target, default in targets:
            target.add_argument(f"--{opt.name}", dest=opt.dest, type=opt.parse,
                                default=default, metavar=opt.metavar,
                                choices=opt.choices, help=opt.help)
    return parser


def merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill each option that no flag set from the config file, then from its
    default; flags win over config values, but every config value must parse."""
    if args.config:
        for raw in Path(args.config).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ProfileError(f"bad config line: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            opt = _CONFIG_OPTIONS.get(key)
            if opt is None:
                raise ProfileError(f"unknown config key: {key!r}")
            try:
                parsed = opt.parse(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ProfileError(f"bad config value for {key!r}: {value!r}") from exc
            if opt.choices and parsed not in opt.choices:
                raise ProfileError(f"bad config value for {key!r}: {value!r}")
            if getattr(args, opt.dest, None) is None:
                setattr(args, opt.dest, parsed)
    for opt in OPTIONS:
        if getattr(args, opt.dest, None) is None:
            setattr(args, opt.dest, opt.default)
    if not 16 <= args.samples <= MAX_SAMPLES:
        raise ProfileError(f"sample count {args.samples} outside [16, {MAX_SAMPLES}]")
    if args.plot_size < 1:
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
