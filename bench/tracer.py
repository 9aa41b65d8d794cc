"""Outside-in tracer for modrec.

``install`` wraps the public functions of each modrec module from outside:
it replaces the module attribute and every name other modules bound with
``from .x import y``, so calls between modules pass through the wrapper too.
A wrapper records a span (id, name, start, end, parent id, query id) or
only bumps a counter where a span per call would cost more than the call.
Spans stay in memory; ``Tracer.summary`` reduces them to additive totals
that the benchmark sums over the queries of a pass.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from math import comb, prod

# Spans whose membership in the summary is by total duration, not self time.
DURATION_SPANS = tuple("acceptance.criterion_%d" % k for k in range(1, 10))


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id or None, query id)
        self.counts = Counter()
        self.query = 0
        self.missing = []        # wrap targets absent from this version of modrec
        self._stack = []         # open spans as (id, name)
        self._ids = itertools.count()

    def span(self, name, fn, before=None, after=None):
        """``fn`` recorded as a span ``name``.  ``before(args)`` runs ahead of
        the call; ``after(args, result, parent name)`` runs after it returns."""
        clock, stack, spans, ids = time.perf_counter, self._stack, self.spans, self._ids

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else (None, None)
            sid = next(ids)
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent[0], self.query))
            if after is not None:
                after(args, result, parent[1])
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self):
        """Totals over all spans: '<span>.calls' and '<span>.self_s' per span
        name, '<span>.s' for DURATION_SPANS, memo hits of the gauge recursion,
        and every counter."""
        out = dict(self.counts)
        own = self_times(self.spans)
        opened_types = {parent for _, name, _, _, parent, _ in self.spans
                        if name == "hn.enumerate_types"}
        for sid, name, start, end, _, _ in self.spans:
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + own[sid]
            if name in DURATION_SPANS:
                out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
            if name == "yangmills.ss_equivariant_series" and sid not in opened_types:
                out["yangmills.ss_equivariant_series.hits"] = (
                    out.get("yangmills.ss_equivariant_series.hits", 0) + 1)
        return out


def self_times(spans):
    """{span id: duration minus the time its child spans cover}.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations."""
    covered = Counter()
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, start, end, _, _ in spans}


def _rebind(modules, original, wrapper):
    for module in modules:
        for attr in [a for a, v in vars(module).items() if v is original]:
            setattr(module, attr, wrapper)


def install(tracer):
    """Wrap modrec's layers for ``tracer``; call before running any query."""
    from modrec import (acceptance, cli, curve, exactalg, hn, kirwan, matrixdiv, symprod,
                        tamagawa, yangmills)

    modules = [m for name, m in sys.modules.items()
               if name == "modrec" or name.startswith("modrec.")]
    counts = tracer.counts

    def wrap(module, attr, name, **hooks):
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append("%s.%s" % (module.__name__, attr))
            return
        _rebind(modules, original, tracer.span(name, original, **hooks))

    def wrap_methods(cls, attrs, make):
        made = {}
        for attr in attrs:
            original = cls.__dict__.get(attr)
            if original is None:
                tracer.missing.append("%s.%s" % (cls.__name__, attr))
                continue
            if id(original) not in made:
                made[id(original)] = make(original)
            setattr(cls, attr, made[id(original)])

    def gcd_kind(args):
        a, b = args
        if len(set(a.vars) | set(b.vars)) > 1:
            counts["exactalg.poly_gcd.multivar_calls"] += 1

    def types_found(args, result, parent):
        counts["hn.types_enumerated"] += len(result)

    def cell_integral(args, result, parent):
        if parent == "tamagawa.cone_sum" and result is not None:
            counts["tamagawa.cone_cells.integral"] += 1

    def mass_memo(args):
        n, d, field = args
        if (n, d % n) in field.mass_cache:
            counts["tamagawa.ss_mass.hits"] += 1

    def cone_cells(args):
        comp = args[0].composition
        if len(comp) > 1:
            counts["tamagawa.cone_cells.visited"] += prod(hn.gap_weights(comp)[1])

    def field_elements(args):
        model, r = args
        counts["curve.count_points.elements"] += model.p ** (model.k * r)

    def torsion_cells(args):
        n, e, _ = args
        counts["matrixdiv.cells"] += comb(e + n - 1, n - 1)

    wrap(exactalg, "poly_gcd", "exactalg.poly_gcd", before=gcd_kind)
    wrap(exactalg, "poly_divexact", "exactalg.poly_divexact")
    wrap(exactalg, "series_expand", "exactalg.series_expand")
    wrap(hn, "enumerate_types", "hn.enumerate_types", after=types_found)
    wrap(hn, "degrees_from_gaps", "hn.degrees_from_gaps", after=cell_integral)
    wrap(tamagawa, "ss_mass", "tamagawa.ss_mass", before=mass_memo)
    wrap(tamagawa, "cone_sum", "tamagawa.cone_sum", before=cone_cells)
    wrap(tamagawa, "total_mass", "tamagawa.total_mass")
    for attr in ("ss_equivariant_series", "classifying_series", "moduli_poincare"):
        wrap(yangmills, attr, "yangmills." + attr)
    wrap(curve, "count_points", "curve.count_points", before=field_elements)
    wrap(curve, "zeta_from_counts", "curve.zeta_from_counts")
    wrap(symprod, "sym_count", "symprod.sym_count")
    wrap(symprod, "divisor_enumerate", "symprod.divisor_enumerate")
    wrap(matrixdiv, "div_poincare", "matrixdiv.div_poincare", before=torsion_cells)
    for attr in ("strata", "bb_decomposition", "perfection_check", "quotient_poincare"):
        wrap(kirwan, attr, "kirwan")
    wrap(cli, "main", "cli.main")
    wrap(cli, "load_curve", "cli.load_curve")

    wrap_methods(exactalg.Poly, ("__mul__", "__rmul__"),
                 lambda f: tracer.counter("exactalg.poly_mul.calls", f))
    wrap_methods(exactalg.Poly, ("__pow__",),
                 lambda f: tracer.counter("exactalg.poly_pow.calls", f))
    wrap_methods(exactalg.Series, ("__mul__", "__rmul__"),
                 lambda f: tracer.span("exactalg.series_mul", f))
    wrap_methods(exactalg.RatFun, ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                                   "__rmul__", "__truediv__", "__rtruediv__", "__pow__"),
                 lambda f: tracer.span("exactalg.ratfun_arith", f))

    # GF instances are cached per (p, m); only a first construction builds.
    gf = curve.GF
    new = gf.__new__
    build = tracer.span("curve.gf_build", new)

    def gf_new(cls, p, m):
        cache = getattr(cls, "_cache", None)
        return new(cls, p, m) if cache is not None and (p, m) in cache else build(cls, p, m)

    gf.__new__ = staticmethod(gf_new)

    criteria = []
    for c in acceptance.CRITERIA:
        run = tracer.span("acceptance.criterion_%d" % c.number, c.run)
        criteria.append(type(c)(c.number, c.title, c.limit_seconds, run))
    acceptance.CRITERIA = tuple(criteria)
