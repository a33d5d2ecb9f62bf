"""What one op of each workload runs, and how its output is checked.

Ops drive the CLI in-process through ``zollfins.cli.main`` (looked up at
call time, so the traced run sees its wrappers); ``zoll_geodesic`` also calls
the public ``closure_integrals``.  Checks run outside the timed section and
compare each output with an exact reference under the bounds the package's
own verify suite uses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import signal
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import zollfins
import zollfins.cli
from zollfins import quadrature
from zollfins import (ZollProfile, chart_distance, closure_integrals,
                      implicit_residual, surface_distance)

from inputs import OpInput

TWO_PI = 2.0 * math.pi
ZOLL_T_END = 4.0 * math.pi

#: Check bounds, as in zollfins.verify (closure_integrals, geodesic_closure,
#: finsler_closure, representation_agreement).  F drift uses the unit-speed
#: tolerance finsler_geodesic demands of its initial velocity.
CLOSURE_BOUND = 1e-8
ZOLL_RETURN_BOUND = 1e-6
FINSLER_RETURN_BOUND = 1e-3
IMPLICIT_BOUND = 1e-8
F_DRIFT_BOUND = 1e-6

#: Per-op wall-clock cap in seconds, a guard against hangs: an op past it is
#: aborted and counted as failed.  The slowest op drawn today takes under a
#: third of it.
OP_CAP_S = {"verify": 30.0, "finsler_trace": 12.0, "indicatrix": 5.0,
            "zoll_geodesic": 30.0}


class OpTimeout(Exception):
    """Raised inside an op that ran past its cap."""


def _alarm(signum, frame):
    raise OpTimeout("op exceeded its wall-clock cap")


@dataclass
class OpResult:
    rc: int | None
    stdout: str
    error: str | None = None
    closure: tuple[float, float] | None = None


@dataclass
class OpCheck:
    failure: str | None = None
    chart_exit: bool = False
    accuracy: dict[str, float] = field(default_factory=dict)


def argv_for(workload: str, inp, out_dir: Path) -> list[str]:
    """CLI argument vector of one op (``--h=`` keeps negative lists intact)."""
    base = [f"--h={inp.h}", "--out", str(out_dir)]
    if workload == "verify":
        return base + ["verify"]
    if workload == "finsler_trace":
        return base + ["geodesic", "--side", "finsler",
                       f"--start={inp.start[0]!r},{inp.start[1]!r}",
                       f"--dir={inp.direction!r}"]
    if workload == "indicatrix":
        return base + ["indicatrix", "--R=" + ",".join(repr(v) for v in inp.chart)]
    return base + ["geodesic", "--side", "zoll", f"--c={inp.c!r}",
                   f"--t-end={ZOLL_T_END!r}"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = zollfins.cli.main(argv)
    return rc, buf.getvalue()


def run_op(workload: str, inp, out_dir: Path) -> OpResult:
    """Run one op under the workload's cap; exceptions become failed results."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S[workload])
    try:
        closure = None
        if workload == "zoll_geodesic":
            closure = zollfins.closure_integrals(ZollProfile.from_string(inp.h), inp.c)
        rc, text = run_cli(argv_for(workload, inp, out_dir))
        return OpResult(rc, text, closure=closure)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpResult(None, "", error=f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def output_digest(out_dir: Path, result: OpResult) -> str:
    """SHA-256 over the op's output files (and closure values, if any)."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    if result.closure is not None:
        digest.update(repr(result.closure).encode())
    return digest.hexdigest()


def _rows(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()[1:]
    return [[float(tok) for tok in line.split(",")] for line in lines]


def _exceeds(check: OpCheck, name: str, value: float, bound: float, what: str) -> None:
    check.accuracy[name] = max(check.accuracy.get(name, 0.0), value)
    if not value <= bound and check.failure is None:
        check.failure = f"{what} {value:.3e} exceeds {bound:.0e}"


def check_op(workload: str, inp, out_dir: Path, result: OpResult) -> OpCheck:
    check = OpCheck()
    if workload == "zoll_geodesic":
        if result.closure is not None:
            t_val, th_val = result.closure
            _exceeds(check, "closure_defect_max",
                     max(abs(t_val - math.pi), abs(th_val - math.pi)),
                     CLOSURE_BOUND, "closure defect")
    if result.error is not None:
        check.failure = result.error
        return check
    if result.rc != 0:
        check.failure = check.failure or f"exit code {result.rc}: {result.stdout.strip()[-200:]}"
        return check
    try:
        _CHECKS[workload](inp, out_dir, result, check)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        check.failure = f"unreadable output: {type(exc).__name__}: {exc}"
    return check


def _check_verify(inp, out_dir, result, check):
    report = json.loads((out_dir / "report.json").read_text())
    ratios = [c["measured"] / c["tolerance"] for c in report["checks"]
              if c["status"] != "skip" and c["tolerance"]]
    check.accuracy["verify_defect_ratio_max"] = max(ratios)
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    if failed or not report["passed"]:
        check.failure = "verify checks failed: " + ",".join(failed)


def _check_finsler(inp, out_dir, result, check):
    rows = _rows(out_dir / "geodesic_finsler.csv")
    check.chart_exit = "chart exit" in result.stdout
    _exceeds(check, "F_drift_max", max(abs(row[5] - 1.0) for row in rows),
             F_DRIFT_BOUND, "F drift")
    if check.chart_exit:
        return
    t_end, r_end, th_end = rows[-1][:3]
    if abs(t_end - TWO_PI) > 1e-9:
        check.failure = f"trace ends at t={t_end!r}, not 2*pi"
        return
    _exceeds(check, "finsler_return_max",
             chart_distance((r_end, th_end), inp.start),
             FINSLER_RETURN_BOUND, "finsler return")


def _check_indicatrix(inp, out_dir, result, check):
    profile = ZollProfile.from_string(inp.h)
    worst = 0.0
    for r_value in inp.chart:
        rows = _rows(out_dir / f"indicatrix_R{format(r_value, 'g')}.csv")
        if not rows:
            raise ValueError(f"empty curve at R={r_value!r}")
        res = implicit_residual(profile, rows[0][0],
                                [row[4] for row in rows], [row[5] for row in rows])
        worst = max(worst, float(np.max(np.abs(res))))
    if not (out_dir / "indicatrices.svg").stat().st_size:
        raise ValueError("empty indicatrices.svg")
    _exceeds(check, "implicit_residual_max", worst, IMPLICIT_BOUND, "implicit residual")


def _check_zoll(inp, out_dir, result, check):
    rows = _rows(out_dir / "geodesic_zoll.csv")
    profile = ZollProfile.from_string(inp.h)
    at_period = min(rows, key=lambda row: abs(row[0] - TWO_PI))
    _exceeds(check, "zoll_return_max",
             surface_distance(profile, (rows[0][1], rows[0][2]),
                              (at_period[1], at_period[2])),
             ZOLL_RETURN_BOUND, "zoll return")


_CHECKS = {"verify": _check_verify, "finsler_trace": _check_finsler,
           "indicatrix": _check_indicatrix, "zoll_geodesic": _check_zoll}


# -- fixed reference panel ------------------------------------------------------

#: The accuracy metrics come from these fixed inputs, the same in every run,
#: so that they move only when the program's numerics move.  The closure
#: panel reaches |c| = 1e-12, where the small-|c| defect (roadmap open item
#: 4: closure integrals off by more than 1e-8 below |c| ~ 1e-8) sets the value.
PANEL_PROFILES = ("0.25,-0.25", "1,-2,1")
PANEL_CLOSURE_C = (0.9, 0.5, -0.3, 0.1, 1e-3, 1e-6, 1e-9, -1e-12)
PANEL_ZOLL_C = (0.9, 0.5, -0.3, 0.05)


def reference_panel(work: Path) -> tuple[dict[str, float], list[str]]:
    """Accuracy metrics on the fixed panel, plus any panel op that failed."""
    acc: dict[str, float] = {}
    problems: list[str] = []

    def panel_op(workload, inp, tag):
        out_dir = work / f"panel-{tag}"
        result = run_op(workload, inp, out_dir)
        check = check_op(workload, inp, out_dir, result)
        if result.error is not None or result.rc != 0:
            problems.append(f"panel {workload} {inp.describe()}: {check.failure}")
        for name, value in check.accuracy.items():
            acc[name] = max(acc.get(name, 0.0), value)

    for h in PANEL_PROFILES:
        profile = ZollProfile.from_string(h)
        for c in PANEL_CLOSURE_C:
            t_val, th_val = closure_integrals(profile, c)
            acc["closure_defect_max"] = max(acc.get("closure_defect_max", 0.0),
                                            abs(t_val - math.pi), abs(th_val - math.pi))
        for k, c in enumerate(PANEL_ZOLL_C):
            panel_op("zoll_geodesic", OpInput(k, h, c=c), f"zoll-{h}-{k}")
    panel_op("finsler_trace", OpInput(0, "1,-2,1", start=(0.2, 0.0), direction=0.9),
             "finsler")
    panel_op("indicatrix", OpInput(0, "1,-2,1", chart=(0.2, 0.6, 1.0, 1.3)),
             "indicatrix")
    out_dir = work / "panel-verify"
    rc, text = run_cli(["--h=1,-2,1", "--out", str(out_dir), "verify",
                        "--samples", "128"])
    check = OpCheck()
    _check_verify(None, out_dir, OpResult(rc, text), check)
    if rc != 0 or check.failure:
        problems.append(f"panel verify: exit {rc}, {check.failure}")
    acc["verify_defect_ratio_max"] = check.accuracy["verify_defect_ratio_max"]
    return acc, problems


# -- warm-up ----------------------------------------------------------------------

#: Gauss-Legendre orders whose node tables the warm-up builds: every order
#: the ops and the panel reach today (256 alone takes ~0.5 s to build).
WARM_ORDERS = (8, 48, 64, 128, 256)


def warm_up(work: Path) -> None:
    """Finish lazy set-up (Gauss-Legendre tables, argparse, writers) on a
    profile no op draws, so op caches stay cold."""
    for n in WARM_ORDERS:
        quadrature.gl_fixed(np.cos, 0.0, 1.0, n)
    profile = ZollProfile((0.1, -0.1))
    for c in (0.5, 0.01):
        zollfins.closure_integrals(profile, c)
    for r in (0.8, 2.0):
        zollfins.indicatrix_parametric(profile, 0.3, r)
    zollfins.jacobi_pair(profile, 0.5, 1.2)
    zollfins.fundamental_tensor(profile, 0.3, 0.0, (0.3, -0.5))
    v0 = zollfins.unit_direction(profile, 0.2, 0.0, 0.9)
    zollfins.finsler_geodesic(profile, (0.2, 0.0), v0, 0.05)
    for argv in (["indicatrix", "--R=0.3,-0.7", "--samples", "32"],
                 ["geodesic", "--side", "zoll", "--c=0.5", "--t-end=0.5"],
                 ["curvature", "--samples", "32"]):
        run_cli(["--h=0.1,-0.1", "--out", str(work / "warm")] + argv)
