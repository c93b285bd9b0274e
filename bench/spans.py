"""Spans recorded from outside the program.

A Tracer wraps public functions of selmerfq's modules: every call
becomes a span (name, start ns, end ns, index of the enclosing span).
Spans stay in memory and are written once, when the run ends.  Counts
are taken only while `counting` is set, so they cover a fixed amount of
work (set-up and the first round) however many rounds a run makes.
"""

import collections
import json
import statistics
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.counting = True
        self._stack = []
        self._undo = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        if self.counting:
            self.counts[name + ".calls"] += 1
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner, attr, name, count=None):
        """Record a span around each call of owner.attr.  `name` is a string
        or a function of the call's arguments; `count` is a pair (counter,
        function of the result) whose value is added to that counter."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = self.open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None and self.counting:
                self.counts[count[0]] += count[1](result)
            return result

        traced.__wrapped__ = original
        if isinstance(owner, type):
            targets = [owner]
        else:
            # modules that imported the function by name hold their own
            # reference to it
            targets = [m for n, m in list(sys.modules.items())
                       if n.split(".")[0] == "selmerfq"
                       and getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, traced)
            self._undo.append((target, attr, original))

    def unwrap(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def durations(self, name):
        return [(end - start) for n, start, end, _ in self.spans
                if n == name and end is not None]

    def median(self, name, scale):
        """Median duration of the spans called `name`, in ns / scale; 0.0
        when the run made no such call."""
        ds = self.durations(name)
        return statistics.median(ds) / scale if ds else 0.0

    def summary(self):
        """Per span name: calls, total and self time in ms, where self time
        is the span's duration less the part its child spans cover."""
        total = collections.Counter()
        own = collections.Counter()
        calls = collections.Counter()
        for name, start, end, parent in self.spans:
            if end is None:
                continue
            dur = end - start
            calls[name] += 1
            total[name] += dur
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        return {n: {"calls": calls[n], "total_ms": total[n] / 1e6,
                    "self_ms": own[n] / 1e6} for n in sorted(calls)}

    def dump(self, path, info):
        with open(path, "w") as fh:
            json.dump({"info": info, "summary": self.summary(),
                       "spans": self.spans}, fh, separators=(",", ":"))


def instrument(tracer):
    """Wrap the public functions whose spans the per-layer metrics read."""
    from selmerfq import census, ffpoly, lattice, lfunction, localdata, \
        weierstrass
    from selmerfq.rng import SplitMix64

    w = tracer.wrap
    w(SplitMix64, "below", "rng.below")
    w(ffpoly, "factor", "ffpoly.factor")
    w(ffpoly, "is_squarefree", "ffpoly.is_squarefree")
    w(ffpoly.UniPoly, "gcd", "ffpoly.unipoly_gcd")
    w(weierstrass, "minimality_of_forms", "weierstrass.minimality")
    w(weierstrass, "is_smooth_surface", "weierstrass.is_smooth_surface")
    w(weierstrass, "random_model", "weierstrass.random_model")
    w(weierstrass, "singular_surface_points",
      "weierstrass.singular_surface_points")
    w(localdata, "global_summary", "localdata.global_summary")
    w(localdata, "bad_places", "localdata.bad_places",
      count=("localdata.bad_places", len))
    w(lfunction, "surface_point_count",
      lambda m, e, *a, **k: "lfunction.point_count.e%d" % e)
    w(lfunction, "l_polynomial", "lfunction.l_polynomial")
    w(lattice, "standard_generators", "lattice.standard_generators")
    w(lattice, "orbit_decompose",
      lambda mod, *a, **k: "lattice.orbit_decompose.n%dr%d" % (mod.n, mod.rank),
      count=("lattice.vectors",
             lambda rep: sum(size for _, size, _ in rep.orbits)))
    w(lattice, "weyl_e8_orbits", lambda n, *a, **k: "lattice.weyl_e8.n%d" % n)
    w(census, "run_census", "census.run_census",
      count=("census.models", lambda rep: rep.counts["total"]))
    w(census, "incidence_mask", "census.incidence_mask")
    w(census, "exhaustive_minimality", "census.exhaustive_minimality")


_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

# (metric, span name, unit): the median duration per call of that span
MEDIANS = [
    ("rng.below_ns", "rng.below", "ns"),
    ("ffpoly.factor_us", "ffpoly.factor", "us"),
    ("ffpoly.is_squarefree_us", "ffpoly.is_squarefree", "us"),
    ("ffpoly.unipoly_gcd_us", "ffpoly.unipoly_gcd", "us"),
    ("weierstrass.minimality_us", "weierstrass.minimality", "us"),
    ("weierstrass.is_smooth_surface_us", "weierstrass.is_smooth_surface", "us"),
    ("weierstrass.random_model_ms", "weierstrass.random_model", "ms"),
    ("weierstrass.singular_surface_points_us",
     "weierstrass.singular_surface_points", "us"),
    ("localdata.global_summary_us", "localdata.global_summary", "us"),
] + [("lfunction.extfield_build_s.e%d" % e, "probe.extfield_build.e%d" % e, "s")
     for e in range(1, 8)] + [
    ("lfunction.point_count_s.e%d" % e, "probe.point_count_warm.e%d" % e, "s")
    for e in range(1, 8)] + [
    ("lfunction.l_polynomial_s.p50", "lfunction.l_polynomial", "s"),
    ("lattice.standard_generators_ms", "lattice.standard_generators", "ms"),
    ("lattice.weyl_e8_s.n5", "lattice.weyl_e8.n5", "s"),
    ("lattice.weyl_e8_s.n6", "lattice.weyl_e8.n6", "s"),
    ("lattice.orbit_decompose_s.n2d2", "lattice.orbit_decompose.n2r20", "s"),
    ("census.incidence_mask_s", "census.incidence_mask", "s"),
    ("census.exhaustive_minimality_s", "census.exhaustive_minimality", "s"),
]

# exact counts over set-up and the first round: calls of a span, or a
# quantity summed from results (places, vectors, models)
COUNTS = [
    "rng.below.calls", "ffpoly.factor.calls", "ffpoly.is_squarefree.calls",
    "ffpoly.unipoly_gcd.calls", "weierstrass.minimality.calls",
    "weierstrass.is_smooth_surface.calls", "weierstrass.random_model.calls",
    "weierstrass.singular_surface_points.calls",
    "localdata.global_summary.calls", "localdata.bad_places",
    "lattice.vectors", "census.models",
]


def layer_metrics(tracer):
    out = {}
    for metric, span, unit in MEDIANS:
        out[metric] = {"value": tracer.median(span, _NS[unit]), "unit": unit}
    lp = tracer.durations("lfunction.l_polynomial")
    out["lfunction.l_polynomial_s.max"] = {
        "value": max(lp) / 1e9 if lp else 0.0, "unit": "s"}
    for metric in COUNTS:
        out[metric] = {"value": tracer.counts[metric], "unit": "count"}
    return out
