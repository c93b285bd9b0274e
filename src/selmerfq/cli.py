"""Command-line entry point.

Every subcommand emits a JSON report embedding the tool version, the full
configuration (null for an option the run does not read), the seed (null
where nothing is drawn, as in exhaustive census and orbits), and the wall
clock; reruns are bit-identical apart from the timing fields.

Exit codes: 0 success; 2 on a bad option or a DomainError, the ValueError
raised where an input is found outside the domain of the computation; 1 on
any other failure, a failed cross-check included.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

from . import DomainError, __version__, census, ffpoly, lattice, lfunction, \
    localdata, weierstrass
from .rng import SplitMix64

SCHEMA_VERSION = 5
# largest height --d of census, orbits and model-gen: on 2 CPUs a 10^4-model
# census takes about 5 s at d = 16 and 21 s at d = 32; at d = 10^5 the
# census and the orbit Gram fail to allocate and model-gen runs for minutes
MAX_HEIGHT = 16
# largest model-gen --count: on 2 CPUs, 10^4 smooth minimal models take about
# 1 s at q = 5, d = 1 and 50 s at d = 16; 10^11 would take 3 months at d = 1
MAX_MODELS = 10 ** 4


def _sigma(n):
    """Sum of the divisors of n, from the pairs (m, n/m) with m <= sqrt n."""
    r = math.isqrt(n)
    pairs = sum(m + n // m for m in range(1, r + 1) if n % m == 0)
    return pairs - r * (r * r == n)  # a square counts its root once


def _int_in(lo, hi=None):
    """argparse type: an integer in [lo, hi] (hi None: no upper bound), else
    exit 2 with a message."""
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError("must be >= %d, got %s" % (lo, text))
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError("must be <= %d, got %s" % (hi, text))
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _load_model(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
            if not 0 <= obj["d"] <= MAX_HEIGHT:
                raise DomainError("%s: height d = %r is outside [0, %d]"
                                  % (path, obj["d"], MAX_HEIGHT))
            return weierstrass.WeierstrassModel.from_json(obj)
        except DomainError:
            raise
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DomainError("%s is not a model file (%s: %s)"
                              % (path, type(exc).__name__, exc))


def _check_out(path):
    """--out must name a file in an existing, writable directory."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise DomainError("--out %s is a directory" % path)
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise DomainError("--out %s: %s is not a writable directory"
                          % (path, folder))


# --------------------------------------------------------------------------
# subcommand handlers: each returns a plain result dict

def _cmd_census(args):
    F = ffpoly.field_from_spec(args.q)
    if F.k != 1:
        raise DomainError("census runs over prime fields")
    if args.mode == "exhaustive":  # nothing drawn, and n is the whole space
        args.seed = args.n = None
    return census.run_census(F.p, args.d, args.mode, args.n, args.seed).to_json()


def _cmd_divisor_count(args):
    return census.singular_divisor_count(
        args.q, seed=args.seed, direct_samples=args.samples)


def _cmd_orbits(args):
    if args.mode == "exhaustive":
        args.seed = args.pairs = None  # nothing drawn, no pairs sampled
        lat, gens = lattice.standard_generators(args.d)
        module = lattice.QuadraticModule(lat, args.n)
        return lattice.orbit_decompose(module, gens).to_json()
    module = lattice.QuadraticModule(lattice.selmer_lattice(args.d), args.n)
    return lattice.sampling_connectivity(module, SplitMix64(args.seed),
                                         pairs_per_class=args.pairs).to_json()


def _cmd_weyl_e8(args):
    return lattice.weyl_e8_orbits(args.n).to_json()


def _cmd_tate(args):
    m = _load_model(args.model)
    summary = localdata.global_summary(m)
    return {
        "model": m.to_json(),
        "places": [pd.to_json() for pd in summary.places],
        "conductor_degree": summary.conductor_degree,
        "tamagawa_product": summary.tamagawa_product,
        "disc_degree_check": summary.disc_degree_check,
    }


def _cmd_lfunction(args):
    return lfunction.l_polynomial(_load_model(args.model)).to_json()


def _cmd_average_table(args):
    try:
        ns = [int(x) for x in args.n.split(",")]
    except ValueError:
        raise DomainError("--n takes comma-separated integers, got %r"
                          % args.n)
    for n in ns:
        if not 1 <= n <= lattice.BUDGET:
            raise DomainError("n must be in [1, %d], got %d"
                              % (lattice.BUDGET, n))
        if args.d == 1:
            lattice.orbit_space(n, 8)
    rows = []
    for n in ns:
        if args.d >= 2:
            rows.append({"n": n, "d": args.d, "average": _sigma(n),
                         "provenance": "sigma(n) [theorem]"})
        else:
            rep = lattice.weyl_e8_orbits(n)
            rows.append({"n": n, "d": args.d, "average": rep.orbit_count,
                         "provenance": "orbit count [computed]"})
    if args.out is not None and args.out.endswith(".json"):
        # TSV mirror, written first: a failed write leaves no report
        with open(args.out[:-5] + ".tsv", "w") as fh:
            fh.write("n\td\taverage\tprovenance\n")
            for r in rows:
                fh.write("%d\t%d\t%d\t%s\n"
                         % (r["n"], r["d"], r["average"], r["provenance"]))
    return {"rows": rows}


def _cmd_model_gen(args):
    F = ffpoly.field_from_spec(args.q)
    models = census.random_models(F, args.d, SplitMix64(args.seed), args.count,
                                  minimal=args.minimal, smooth=args.smooth)
    return {"models": [m.to_json() for m in models]}


# --------------------------------------------------------------------------

@functools.cache  # built on the first main() call, not at import
def build_parser():
    ap = argparse.ArgumentParser(
        prog="selmerfq",
        description="Weierstrass models over F_q(t): local data, "
                    "L-polynomials, lattice orbits, censuses.")
    ap.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="report file (default stdout)")
    # only the subcommands that draw take a seed
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0)

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", parents=[seeded])
    p.add_argument("--q", required=True, help="field spec p or p^k")
    p.add_argument("--d", type=_int_in(0, MAX_HEIGHT), required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="sample")
    p.add_argument("--n", type=int, default=10 ** 4)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("divisor-count", parents=[seeded])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, default=1, choices=(1,))
    p.add_argument("--samples", type=_int_in(1), default=4000)
    p.set_defaults(func=_cmd_divisor_count)

    p = sub.add_parser("orbits", parents=[seeded])
    p.add_argument("--n", type=_int_in(1), required=True)
    p.add_argument("--d", type=_int_in(2, MAX_HEIGHT), required=True,
                   help="height >= 2; weyl-e8 covers d = 1")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--pairs", type=_int_in(1), default=100)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("weyl-e8", parents=[common])
    p.add_argument("--n", type=_int_in(1), required=True)
    p.set_defaults(func=_cmd_weyl_e8)

    p = sub.add_parser("tate", parents=[common])
    p.add_argument("--model", required=True, help="model JSON file")
    p.set_defaults(func=_cmd_tate)

    p = sub.add_parser("lfunction", parents=[common])
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_lfunction)

    p = sub.add_parser("average-table", parents=[common])
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--d", type=_int_in(1), required=True)
    p.set_defaults(func=_cmd_average_table)

    p = sub.add_parser("model-gen", parents=[seeded])
    p.add_argument("--q", required=True)
    p.add_argument("--d", type=_int_in(0, MAX_HEIGHT), required=True)
    p.add_argument("--count", type=_int_in(0, MAX_MODELS), default=1)
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--smooth", action="store_true")
    p.set_defaults(func=_cmd_model_gen)

    for p in sub.choices.values():  # a prefix (--mod) names no option
        p.allow_abbrev = False
    return ap


def _config_of(args):
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w") as fh:
        fh.write(text)


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # 2 on a bad option, 0 after --help, --version
        return exc.code
    t0 = time.time()
    try:
        if args.out is not None:
            _check_out(args.out)
        result = args.func(args)
        _emit({
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": args.command,
            "config": _config_of(args),
            "seed": getattr(args, "seed", None),
            "wall_clock_seconds": time.time() - t0,
            "result": result,
        }, args.out)
    except DomainError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError, AssertionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
