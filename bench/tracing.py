"""Spans and counters for the traced run, recorded from outside the program.

The tracer replaces selected zollfins functions with wrappers wherever a
zollfins module binds them (and on the classes for methods).  Each call made
while an op runs records a span: layer name, start, end, parent span and op
id.  Spans live in memory and are written out when the run ends.  A span
stack per thread parents work done on the indicatrix thread pool to the op
that submitted it.

Per-layer metrics follow from the spans: ``calls``; ``total_s``, the time
inside outermost spans of a layer; and ``self_s``, each span's duration minus
the part of its interval covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import zollfins
from zollfins import cli, finsler, geodesics, jacobi, moduli, profile, quadrature, verify

OP = "op"

#: (layer name, owner, attribute, tag function).  Several attributes can
#: share one layer name; their spans are merged.
def _targets():
    def seeded(args, kwargs, result):
        seed_r = args[3] if len(args) > 3 else kwargs.get("seed_r")
        return seed_r is not None

    def missed(args, kwargs, result):
        return result is None

    def nodes(args, kwargs, result):
        return args[3] if len(args) > 3 else kwargs["n"]

    def size(args, kwargs, result):
        return Path(args[0]).stat().st_size

    cls = profile.ZollProfile
    curve = moduli.CurveEval
    return [
        ("profile.ZollProfile", cls, "__init__", None),
        ("profile.eval", cls, "h", None),
        ("profile.eval", cls, "h_prime", None),
        ("profile.eval", cls, "h_second", None),
        ("profile.check_positive_curvature", profile, "check_positive_curvature", None),
        ("quadrature.gl_fixed", quadrature, "gl_fixed", nodes),
        ("quadrature.gl_adaptive", quadrature, "gl_adaptive", None),
        ("quadrature.gl_refined", quadrature, "gl_refined", None),
        ("jacobi.phi_quad", jacobi, "curvature_integral", None),
        ("jacobi.phi_quad", jacobi, "curvature_integral_tail", None),
        ("jacobi.phi_quad", jacobi, "curvature_integral_full", None),
        ("jacobi.hpp_integral", jacobi, "hpp_integral", None),
        ("jacobi.jacobi_pair", jacobi, "jacobi_pair", None),
        ("geodesics.closure_integrals", geodesics, "closure_integrals", None),
        ("geodesics.integrate_geodesic", geodesics, "integrate_geodesic", None),
        ("moduli.solve_ray", curve, "solve_ray", seeded),
        ("moduli.newton_ray", curve, "newton_ray", missed),
        ("moduli.bracket_solve", moduli.IndicatrixCurveCache, "_bracket_solve", None),
        ("moduli.indicatrix_parametric", moduli, "indicatrix_parametric", None),
        ("moduli.indicatrix_regularized", moduli, "indicatrix_regularized", None),
        ("moduli.indicatrix_curve", moduli, "indicatrix_curve", None),
        ("finsler.finsler_geodesic", finsler, "finsler_geodesic", None),
        ("finsler.spray_rhs", finsler, "_spray_rhs", None),
        ("finsler.fundamental_tensor", finsler, "fundamental_tensor", None),
        ("finsler.finsler_F", finsler, "finsler_F", None),
        ("verify.run_verification", verify, "run_verification", None),
        ("cli.main", cli, "main", None),
        ("cli.render", cli, "curvature_csv", None),
        ("cli.render", cli, "indicatrix_csv", None),
        ("cli.render", cli, "zoll_trace_csv", None),
        ("cli.render", cli, "finsler_trace_csv", None),
        ("cli.render", cli, "indicatrices_svg", None),
        ("cli.atomic_write", cli, "atomic_write", size),
    ]


#: lru caches whose hit ratio over the traced ops is reported.
def _caches():
    return {"curve_cache": moduli.curve_cache, "curve_eval": moduli.curve_eval,
            "implicit_polynomial": moduli.implicit_polynomial}


TIMED_LAYERS = ("profile.ZollProfile", "profile.eval", "profile.check_positive_curvature",
                "quadrature.gl_fixed", "quadrature.gl_refined", "jacobi.phi_quad",
                "jacobi.hpp_integral", "jacobi.jacobi_pair", "geodesics.closure_integrals",
                "geodesics.integrate_geodesic", "moduli.solve_ray",
                "moduli.indicatrix_parametric", "moduli.indicatrix_regularized",
                "moduli.indicatrix_curve", "finsler.finsler_geodesic",
                "finsler.fundamental_tensor", "finsler.finsler_F",
                "verify.run_verification", "cli.main", "cli.render", "cli.atomic_write")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for layer in TIMED_LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.total_s", "s"),
                  (f"{layer}.self_s", "s")]
    names += [("quadrature.gl_fixed.nodes", "count"),
              ("quadrature.gl_adaptive.calls", "count"),
              ("quadrature.gl_adaptive.orders_per_call", "ratio"),
              ("moduli.solve_ray.warm_share", "ratio"),
              ("moduli.newton_ray.calls", "count"),
              ("moduli.newton_ray.miss_ratio", "ratio"),
              ("moduli.bracket_solve.calls", "count"),
              ("moduli.curve_cache.hit_ratio", "ratio"),
              ("moduli.curve_eval.hit_ratio", "ratio"),
              ("moduli.implicit_polynomial.hit_ratio", "ratio"),
              ("finsler.spray_rhs.calls", "count"),
              ("finsler.solve_ray_per_trace", "count"),
              ("finsler.solve_ray_per_rhs", "ratio"),
              ("cli.bytes_written", "B"),
              ("trace.spans", "count"),
              ("trace.overhead", "ratio")]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [layer, start, end, parent, op, tag]
        self.active = False
        self.op_id = -1
        self.op_root = None
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._cache_hits = defaultdict(int)
        self._cache_misses = defaultdict(int)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "zollfins" or name.startswith("zollfins.")]
        for layer, owner, attr, tag in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(layer, original, tag))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, tag)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn, tag):
        tracer = self
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            rec = [layer, perf_counter(), 0.0,
                   stack[-1] if stack else tracer.op_root, tracer.op_id, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[5] = tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_root = [OP, perf_counter(), 0.0, None, op_id, None]
        self.spans.append(self.op_root)
        self._stack().append(self.op_root)
        self._before = {name: fn.cache_info() for name, fn in _caches().items()}
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.op_root[2] = perf_counter()
        self._stack().pop()
        for name, fn in _caches().items():
            info, before = fn.cache_info(), self._before[name]
            self._cache_hits[name] += info.hits - before.hits
            self._cache_misses[name] += info.misses - before.misses

    # -- results -------------------------------------------------------------

    def metrics(self, overhead: float) -> dict[str, float]:
        spans = self.spans
        children = defaultdict(list)
        for rec in spans:
            if rec[3] is not None:
                children[id(rec[3])].append(rec)

        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        tags = defaultdict(list)
        for rec in spans:
            layer, start, end = rec[0], rec[1], rec[2]
            calls[layer] += 1
            self_time[layer] += (end - start) - _covered(start, end, children[id(rec)])
            if not _has_ancestor(rec, layer):
                total[layer] += end - start
            if rec[5] is not None:
                tags[layer].append(rec[5])

        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.total_s"] = total[layer]
            out[f"{layer}.self_s"] = self_time[layer]

        adaptive_orders = sum(1 for rec in spans if rec[0] == "quadrature.gl_fixed"
                              and rec[3] is not None and rec[3][0] == "quadrature.gl_adaptive")
        ray_in_trace = sum(1 for rec in spans if rec[0] == "moduli.solve_ray"
                           and _has_ancestor(rec, "finsler.finsler_geodesic"))
        ray_in_rhs = sum(1 for rec in spans if rec[0] == "moduli.solve_ray"
                         and _has_ancestor(rec, "finsler.spray_rhs"))
        out["quadrature.gl_fixed.nodes"] = sum(tags["quadrature.gl_fixed"])
        out["quadrature.gl_adaptive.calls"] = calls["quadrature.gl_adaptive"]
        out["quadrature.gl_adaptive.orders_per_call"] = _ratio(
            adaptive_orders, calls["quadrature.gl_adaptive"])
        out["moduli.solve_ray.warm_share"] = _ratio(
            sum(tags["moduli.solve_ray"]), calls["moduli.solve_ray"])
        out["moduli.newton_ray.calls"] = calls["moduli.newton_ray"]
        out["moduli.newton_ray.miss_ratio"] = _ratio(
            sum(tags["moduli.newton_ray"]), calls["moduli.newton_ray"])
        out["moduli.bracket_solve.calls"] = calls["moduli.bracket_solve"]
        for name in _caches():
            hits, misses = self._cache_hits[name], self._cache_misses[name]
            out[f"moduli.{name}.hit_ratio"] = _ratio(hits, hits + misses)
        out["finsler.spray_rhs.calls"] = calls["finsler.spray_rhs"]
        out["finsler.solve_ray_per_trace"] = _ratio(
            ray_in_trace, calls["finsler.finsler_geodesic"])
        out["finsler.solve_ray_per_rhs"] = _ratio(ray_in_rhs, calls["finsler.spray_rhs"])
        out["cli.bytes_written"] = sum(tags["cli.atomic_write"])
        out["trace.spans"] = len(spans)
        out["trace.overhead"] = overhead
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: [layer, start, end, parent index, op]."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for rec in self.spans:
                parent = index.get(id(rec[3])) if rec[3] is not None else None
                handle.write(json.dumps([rec[0], rec[1], rec[2], parent, rec[4]]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _has_ancestor(rec, layer: str) -> bool:
    parent = rec[3]
    while parent is not None:
        if parent[0] == layer:
            return True
        parent = parent[3]
    return False


def _covered(start: float, end: float, kids) -> float:
    """Length of the part of [start, end] covered by the kids' intervals."""
    if not kids:
        return 0.0
    intervals = sorted((max(k[1], start), min(k[2], end)) for k in kids)
    covered = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            covered += max(0.0, cur_hi - cur_lo)
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return covered + max(0.0, cur_hi - cur_lo)
