"""Benchmark of selmerfq: seeded workloads, checked outputs, end-to-end
and per-layer metrics.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With --workload, one workload runs in this process.  It sets up its
inputs from the seed, then repeats whole rounds of the same operations
until --seconds have passed (at least one round), checks the outputs
against computations made apart from the program, and prints as its
last line one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, read from
spans recorded around the program's public functions.  A failed check
exits 1 and names the workload and the check.

Without --workload every workload runs, each in its own process, one
after another.  Run records and span dumps go to bench/out/.
"""

import os
import sys
import time

T0 = time.perf_counter()
# one thread per workload process, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# set-ups timed per run: this process's own and those of fresh processes
SETUP_SAMPLES = 5


def load_program():
    """Import selmerfq from this checkout's src/, and nothing else."""
    init = os.path.join(SRC, "selmerfq", "__init__.py")
    if not os.path.isfile(init):
        sys.exit("bench: no selmerfq sources at %s" % init)
    sys.path.insert(0, SRC)
    import selmerfq
    if os.path.abspath(selmerfq.__file__) != init:
        sys.exit("bench: imported selmerfq from %s, not %s"
                 % (selmerfq.__file__, init))


def machine():
    import numpy
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_lines}


def is_failure(output):
    return isinstance(output, Exception) or (
        isinstance(output, tuple) and output[0] != 0)


def run_ops(ops, tracer, kind):
    """Run each (label, op) once; an op that raises has failed."""
    outputs = {}
    for label, op in ops:
        span = tracer.open("%s.%s" % (kind, label)) if tracer else None
        try:
            outputs[label] = op()
        except Exception as exc:  # counted as a failed operation
            outputs[label] = exc
            traceback.print_exc()
        finally:
            if tracer:
                tracer.close(span)
    return outputs


def run_rounds(ops, seconds, tracer):
    """Whole rounds of `ops` until `seconds` have passed.  Returns the
    round times, the first round's outputs, the operations attempted and
    failed, and the labels whose output changed between rounds."""
    from workloads import canonical
    walls, first, changed = [], None, set()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        start = time.perf_counter()
        outputs = run_ops(ops, tracer, "op")
        walls.append(time.perf_counter() - start)
        attempted += len(ops)
        failed += sum(is_failure(o) for o in outputs.values())
        if tracer:
            tracer.counting = False
        if first is None:
            first = outputs
            continue
        for label, out in outputs.items():
            if is_failure(out) or is_failure(first[label]) \
                    or canonical(out) != canonical(first[label]):
                changed.add(label)
    return walls, first, attempted, failed, sorted(changed)


def setup_in_fresh_process(args):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args):
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        inputs = wl.setup(args.seed, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ops = wl.ops(inputs)
        walls, outputs, attempted, failed, changed = run_rounds(
            ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            # operations whose layer cost the traced run measures on their
            # own, outside the timed rounds
            probes = wl.probes(inputs)
            probed = run_ops(probes, tracer, "probe")
            attempted += len(probes)
            failed += sum(is_failure(o) for o in probed.values())
            outputs = dict(outputs, **probed)
        setups = [setup_s]
        if not args.trace:
            setups += [setup_in_fresh_process(args)
                       for _ in range(SETUP_SAMPLES - 1)]

        ck = workloads.Checks()
        ck("reports identical across rounds", not changed, changed)
        try:
            wl.check(inputs, outputs, ck)
        except Exception as exc:  # a check that cannot run has failed
            ck("checks ran to the end", False, repr(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = statistics.median(walls)
    if args.trace:
        metrics = spans.layer_metrics(tracer)
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "rounds": walls,
            "setup_samples": setups, "inputs": getattr(wl, "describe",
                                                       lambda i: None)(inputs),
            "checks_passed": ck.passed, "checks_failed": ck.failed}
    tag = "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace)
    if tracer:
        tracer.unwrap()
        tracer.dump(os.path.join(OUT, "spans-%s.json" % tag), info)
    result = {"correct": not ck.failed, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, "run-%s.json" % tag), "w") as fh:
        json.dump(dict(info, result=result), fh, indent=1)

    m = info["machine"]
    print("# %s seed=%d rounds=%d checks=%d/%d nproc=%d python=%s numpy=%s "
          "src_lines=%d" % (wl.name, args.seed, len(walls), len(ck.passed),
                            len(ck.passed) + len(ck.failed), m["nproc"],
                            m["python"], m["numpy"], m["src_lines"]))
    for failure in ck.failed:
        print("check failed: %s: %s" % (wl.name, failure), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    import workloads
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
        print("\n".join(lines[:-1]))
        for metric, v in sorted((results[name] or {}).get("metrics", {}).items()):
            print("  %-44s %14.6g %s" % (metric, v["value"], v["unit"]))
    print(json.dumps(results))
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None,
                    help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="measure whole rounds for this long (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    load_program()
    import workloads
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
