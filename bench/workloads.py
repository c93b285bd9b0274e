"""The benchmark's workloads: seeded inputs, the operations of one round,
and the checks on their outputs.

Every operation goes through a user's entry point: `selmerfq.cli.main`
with the argv a user would type, or the public library function where no
subcommand exists.  A round is the same list of operations every time;
its outputs are checked against the functions in `oracles`, which share
no code with selmerfq.
"""

import contextlib
import functools
import io
import json
import os

import oracles
from selmerfq import census, cli, lfunction, weierstrass

# wall-clock fields, the only part of a report that may change between
# runs of the same input
TIMING_KEYS = ("wall_clock_seconds", "elapsed_seconds")


def cli_op(argv, before=None):
    """An operation that runs the CLI in this process; its output is the
    exit code and the report text the CLI printed."""
    def run():
        if before is not None:
            before()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()
    return run


def report(output):
    """The `result` section of a CLI report, timing fields removed."""
    code, text = output
    return strip_timing(json.loads(text)["result"])


def canonical(output):
    """An operation's output with its timing fields removed: equal for
    equal inputs."""
    if isinstance(output, tuple):
        code, text = output
        return code, strip_timing(json.loads(text)) if code == 0 else text
    return strip_timing(output)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


class Checks:
    """Named checks; a failure records the check's name and what was seen."""

    def __init__(self):
        self.passed = []
        self.failed = []

    def __call__(self, name, ok, seen=""):
        (self.passed if ok else self.failed).append(
            name if ok else "%s (seen: %s)" % (name, seen))


# ---------------------------------------------------------------------------

class CensusQ5D1:
    name = "census-q5d1"
    why = ("sampled census of 10^4 models: the per-model scalar path through "
           "rng, ffpoly, weierstrass and localdata")
    N = 10 ** 4

    def setup(self, seed, workdir):
        return {"seed": seed}

    def ops(self, inputs):
        argv = ["census", "--q", "5", "--d", "1", "--mode", "sample",
                "--n", str(self.N), "--seed", str(inputs["seed"])]
        return [("census", cli_op(argv))]

    def probes(self, inputs):
        return []

    def check(self, inputs, outputs, ck):
        counts = report(outputs["census"])["counts"]
        ck("total = N", counts["total"] == self.N, counts["total"])
        ck("squarefree_disc <= smooth <= minimal <= total",
           counts["squarefree_disc"] <= counts["smooth"] <= counts["minimal"]
           <= counts["total"], counts)
        mine = oracles.census_recount(inputs["seed"], self.N, 5)
        for key in ("minimal", "smooth", "squarefree_disc", "disc_zero"):
            ck("%s equals the recount" % key, counts[key] == mine[key],
               "%s vs %s" % (counts[key], mine[key]))


class LpolyQ5D1:
    name = "lpoly-q5d1"
    why = ("L-polynomials of 8 seeded smooth d = 1 models over F_5, one of "
           "them needing S_7: point counts over F_{5^e}, e <= 7")
    # models per escalation class, in draw order: the trace that decides
    # the sign epsilon (S_5, S_6 or S_7), or the all-traces-zero shortcut
    QUOTA = {"S5": 5, "S6": 1, "S7": 1, "zero": 1}
    BATCH = 64

    def setup(self, seed, workdir):
        """Draw BATCH models with model-gen per batch, until every class
        has its quota; classes come from the benchmark's own S_1..S_4."""
        chosen = []
        need = dict(self.QUOTA)
        batch = 0
        while any(need.values()):
            argv = ["model-gen", "--q", "5", "--d", "1", "--count",
                    str(self.BATCH), "--minimal", "--smooth",
                    "--seed", str(seed + 1000003 * batch)]
            code, text = cli_op(argv)()
            if code != 0:
                raise RuntimeError("model-gen exited %d" % code)
            for model in json.loads(text)["result"]["models"]:
                traces = [oracles.trace(model, e) for e in range(1, 5)]
                cls = oracles.escalation(oracles.newton(traces))
                if need[cls]:
                    need[cls] -= 1
                    chosen.append({"model": model, "class": cls,
                                   "traces": traces})
            batch += 1
        for i, item in enumerate(chosen):
            item["path"] = os.path.join(workdir, "model-%d.json" % i)
            with open(item["path"], "w") as fh:
                json.dump(item["model"], fh)
        return {"models": chosen, "batches": batch}

    def ops(self, inputs):
        # a fresh CLI process builds its F_{5^e} tables again; clearing the
        # table cache gives each call that cost in this process too
        return [("lfunction-%d" % i,
                 cli_op(["lfunction", "--model", item["path"]],
                        before=lfunction.ExtField._cache.clear))
                for i, item in enumerate(inputs["models"])]

    def describe(self, inputs):
        return {"classes": [item["class"] for item in inputs["models"]],
                "model_gen_batches": inputs["batches"]}

    def probes(self, inputs):
        """On the model that needs S_7: the first ExtField(5, e) of a
        process for e = 1..7 (the cache is cleared before e = 1), then
        surface_point_count with those tables built."""
        m = weierstrass.WeierstrassModel.from_json(self._s7(inputs)["model"])

        def build(e):
            def run():
                if e == 1:
                    lfunction.ExtField._cache.clear()
                return lfunction.ExtField(5, e).Q
            return run
        return ([("extfield_build.e%d" % e, build(e)) for e in range(1, 8)]
                + [("point_count_warm.e%d" % e,
                    functools.partial(lfunction.surface_point_count, m, e))
                   for e in range(1, 8)])

    @staticmethod
    def _s7(inputs):
        return next(i for i in inputs["models"] if i["class"] == "S7")

    def check(self, inputs, outputs, ck):
        classes = [item["class"] for item in inputs["models"]]
        ck("the set holds 5 S5, 1 S6, 1 S7 and 1 all-traces-zero model",
           {c: classes.count(c) for c in self.QUOTA} == self.QUOTA, classes)
        for i, item in enumerate(inputs["models"]):
            L = report(outputs["lfunction-%d" % i])
            model = item["model"]
            # S_1, S_2 from plain enumeration; S_3, S_4 from the chi sums
            traces = [oracles.trace(model, e, oracles.point_count_naive)
                      for e in (1, 2)] + item["traces"][2:]
            ck("model %d: S_1, S_2 agree between the two point counts" % i,
               traces[:2] == item["traces"][:2], (traces, item["traces"]))
            problems = oracles.lpoly_problems(L["coefficients"], L["epsilon"],
                                              5, traces)
            ck("model %d (%s): L-polynomial checks" % (i, item["class"]),
               not problems, "; ".join(problems))
        if "point_count_warm.e1" in outputs:
            item = self._s7(inputs)
            counts = [outputs["point_count_warm.e%d" % e] for e in range(1, 5)]
            ck("probe point counts give the S_7 model's S_1..S_4",
               [c - (1 + 2 * 5 ** e + 25 ** e) for e, c in enumerate(counts, 1)]
               == item["traces"], counts)


class OrbitsMod2:
    name = "orbits-mod2"
    why = ("orbit BFS of (Z/n)^8 under W(E8) for n = 2..6 and the d = 2 "
           "Selmer module mod 2 in sampling mode: only lattice works")
    NS = (2, 3, 4, 5, 6)
    N2D2 = ["orbits", "--n", "2", "--d", "2"]

    def setup(self, seed, workdir):
        return {"seed": seed}

    def ops(self, inputs):
        ops = [("weyl-e8-%d" % n, cli_op(["weyl-e8", "--n", str(n)]))
               for n in self.NS]
        ops.append(("orbits-n2d2-sample", cli_op(
            self.N2D2 + ["--mode", "sample", "--seed", str(inputs["seed"])])))
        return ops

    def probes(self, inputs):
        # the exhaustive BFS over 2^20 vectors (about 45 s) is too long to
        # repeat in every run; the traced run measures it once
        return [("orbits-n2d2-exhaustive", cli_op(
            self.N2D2 + ["--mode", "exhaustive", "--seed", str(inputs["seed"])]))]

    def check(self, inputs, outputs, ck):
        e8 = oracles.e8_cartan()
        for n in self.NS:
            rep = report(outputs["weyl-e8-%d" % n])
            sizes = [o["size"] for o in rep["orbits"]]
            ck("weyl-e8 n=%d: sizes sum to n^8" % n, sum(sizes) == n ** 8,
               sum(sizes))
            ck("weyl-e8 n=%d: at least sigma(n) orbits" % n,
               rep["orbit_count"] == len(sizes) >= oracles.sigma(n),
               rep["orbit_count"])
            self._invariants(ck, "weyl-e8 n=%d" % n, rep, e8, n)
            if n == 2:
                ck("weyl-e8 n=2: quadric orbit sizes {1, 120, 135}",
                   sorted(sizes) == oracles.quadric_orbit_sizes(8), sizes)
            if n == 3:
                ck("weyl-e8 n=3: 5 orbits", len(sizes) == 5, len(sizes))
        gram = oracles.selmer_gram(2)
        for mode in ("sample", "exhaustive"):
            label = "orbits-n2d2-" + mode
            if label not in outputs:
                continue
            rep = report(outputs[label])
            invs = sorted(tuple(o["invariant"]) for o in rep["orbits"])
            ck("%s: sigma(2) = 3 classes (1,0), (1,1), (2,0)" % label,
               rep["orbit_count"] == oracles.sigma(2) == 3
               and invs == [(1, 0), (1, 1), (2, 0)], invs)
            self._invariants(ck, label, rep, gram, 2)
        rep = report(outputs["orbits-n2d2-sample"])
        ck("orbits-n2d2-sample: every sampled pair connected",
           rep["unresolved"] == [] and all(
               c["connected"] == c["pairs"] for c in rep["connectivity"].values()),
           rep["connectivity"])
        if "orbits-n2d2-exhaustive" in outputs:
            sizes = sorted(o["size"] for o in
                           report(outputs["orbits-n2d2-exhaustive"])["orbits"])
            ck("orbits-n2d2-exhaustive: sizes of the plus-type quadric on F_2^20",
               sizes == oracles.quadric_orbit_sizes(20), sizes)

    @staticmethod
    def _invariants(ck, label, rep, gram, n):
        bad = [o for o in rep["orbits"] if tuple(o["invariant"])
               != oracles.content_invariant(gram, o["representative"], n)]
        ck("%s: representative invariants" % label, not bad, bad[:2])


class LocusQ3:
    name = "locus-q3"
    why = ("q = 3 singular locus: incidence marking over all 3^15 tuples in "
           "numpy, then 4000 sampled per-model Jacobian searches at p = 3")
    SAMPLES = 4000
    Q = 3

    def setup(self, seed, workdir):
        return {"seed": seed}

    def ops(self, inputs):
        argv = ["divisor-count", "--q", str(self.Q), "--d", "1",
                "--samples", str(self.SAMPLES), "--seed", str(inputs["seed"])]
        return [("divisor-count", cli_op(argv))]

    def probes(self, inputs):
        # a second whole-space pass (about 15 s) that does not depend on
        # the seed; the traced run measures it once
        return [("exhaustive-minimality",
                 lambda: census.exhaustive_minimality(self.Q))]

    def check(self, inputs, outputs, ck):
        q = self.Q
        det = report(outputs["divisor-count"])["direct_detail"]
        ck("containment_violations = 0", det["containment_violations"] == 0,
           det["containment_violations"])
        ck("sampled_marked <= sampled_singular <= samples",
           det["sampled_marked"] <= det["sampled_singular"] <= det["samples"]
           == self.SAMPLES, det)
        mine = oracles.sampled_marked(inputs["seed"], self.SAMPLES, q)
        ck("sampled_marked equals the base-point recount",
           det["sampled_marked"] == mine, "%s vs %s" % (det["sampled_marked"],
                                                         mine))
        if "exhaustive-minimality" in outputs:
            exm = outputs["exhaustive-minimality"]
            nonmin = (q + 1) * (q ** 3 - 1) + 1
            ck("non-minimal tuples = (q+1)(q^3-1)+1 = %d" % nonmin,
               exm["nonminimal"] == exm["oracle_nonminimal"] == nonmin
               and exm["minimal"] == exm["total"] - nonmin == q ** 15 - nonmin,
               exm)


WORKLOADS = {w.name: w for w in (CensusQ5D1(), LpolyQ5D1(), OrbitsMod2(),
                                 LocusQ3())}
