"""Worker processes of the benchmark. Each imports wildinv from the
checkout's src/ first, records when that import finished (time.monotonic,
comparable with the parent's clock), and prints one JSON line.

    worker.py probe                          import only
    worker.py cold --trace 0|1 --report-id N -- report ...
                                             time one cli.run(argv)
    worker.py batch --seed S --seconds T --trace 0|1
                                             warm library loop over the
                                             frozen batch list
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "wildinv" / "__init__.py").is_file():
    sys.stderr.write(f"no wildinv sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))
import wildinv  # noqa: E402
import wildinv.cli  # noqa: E402

T_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

sys.path.insert(1, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


def _emit(doc):
    doc["t_imported"] = T_IMPORTED
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(doc) + "\n")


def cold(args):
    tracer = Tracer().install() if args.trace else None
    if tracer:
        tracer.begin_report(args.report_id)
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = wildinv.cli.run(args.argv)
        except Exception as exc:  # a raising report is a failed operation
            rc, error = None, repr(exc)
        t1 = time.perf_counter()
    if tracer:
        tracer.uninstall()
    _emit({"rc": rc, "error": error, "report_s": t1 - t0, "out": buf.getvalue(),
           "trace": tracer.summary() if tracer else None})


def _report(spec):
    rep = wildinv.invariants.full_report(
        spec["p"], spec["f"], [tuple(c) for c in spec["coeffs"]], spec["m"], curve=spec["curve"])
    return rep.to_json()


def _timed_pass(order, report_base, tracer):
    """One pass over the inputs; returns (samples, docs, errors, wall)."""
    samples, docs, errors = [], [], {}
    w0 = time.perf_counter()
    for i, spec in enumerate(order):
        if tracer:
            tracer.begin_report(report_base + i)
        t0 = time.perf_counter()
        try:
            doc = _report(spec)
        except Exception as exc:  # a raising report is a failed operation
            doc, errors[i] = None, repr(exc)
        samples.append(time.perf_counter() - t0)
        docs.append(doc)
    return samples, docs, errors, time.perf_counter() - w0


def _check_pass(order, docs, errors, failures):
    """Check a pass's reports; returns the parsed documents that passed,
    None in the place of each failed one."""
    good = []
    for i, (spec, doc) in enumerate(zip(order, docs)):
        if i in errors:
            failures.append({"name": spec["name"], "error": errors[i]})
            good.append(None)
            continue
        doc = json.loads(json.dumps(doc))
        problems = checks.check_report(spec, doc)
        if problems:
            failures.append({"name": spec["name"], "check": problems})
            doc = None
        good.append(doc)
    return good


def batch(args):
    """Warm up on the disjoint warm-up list, then time whole passes over the
    timed list in a seeded order while the next pass is predicted to end
    within --seconds. Every report is checked after its pass."""
    timed, warmup = inputs.load_batch()
    for spec in warmup:
        _report(spec)
    rng = random.Random(args.seed)
    order = list(timed)
    rng.shuffle(order)
    tracer = Tracer() if args.trace else None
    samples, failures, self_test_pairs = [], [], []
    untraced_s = traced_s = 0.0
    rounds, attempted, loop_wall, last = 0, 0, 0.0, 0.0
    cpus = sorted(os.sched_getaffinity(0))
    start = time.monotonic()
    while rounds == 0 or time.monotonic() - start + last <= args.seconds:
        r0 = time.monotonic()
        # a new CPU every round, as run.py pins the cold workers
        os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
        if tracer:
            # the same pass untraced and then traced gives the tracing overhead
            s, docs, errors, _ = _timed_pass(order, 0, None)
            attempted += len(order)
            _check_pass(order, docs, errors, failures)
            untraced_s += sum(s)
            tracer.install()
        s, docs, errors, wall = _timed_pass(order, rounds * len(order), tracer)
        attempted += len(order)
        if tracer:
            tracer.uninstall()
            traced_s += sum(s)
        loop_wall += wall
        for spec, doc, secs in zip(order, _check_pass(order, docs, errors, failures), s):
            if doc is None:
                continue
            samples.append((spec["name"], secs))
            if not self_test_pairs and doc["curve"] and doc["module"]["dim"]:
                self_test_pairs.append((spec, doc))
        rounds += 1
        last = time.monotonic() - r0
    _emit({"rounds": rounds, "attempted": attempted, "samples": samples,
           "failures": failures, "loop_wall_s": loop_wall,
           "self_test": checks.self_test(self_test_pairs),
           "untraced_s": untraced_s, "traced_s": traced_s,
           "trace": tracer.summary() if tracer else None})


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("probe")
    c = sub.add_parser("cold")
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--report-id", type=int, default=0)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    b = sub.add_parser("batch")
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--seconds", type=float, required=True)
    b.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    if sys.flags.optimize:
        # -O strips wildinv's assert-based checks, which would time less work
        sys.stderr.write("refusing to run under python -O\n")
        sys.exit(2)
    if args.mode == "probe":
        _emit({})
    elif args.mode == "cold":
        if args.argv and args.argv[0] == "--":
            args.argv = args.argv[1:]
        cold(args)
    else:
        batch(args)


if __name__ == "__main__":
    main()
