"""wildinv benchmark: cold CLI reports and a warm library loop.

    python3 perfbench/run.py --workload primitivity|curve|batch|all \
        --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file):
  primitivity  cold `wildinv report` without --curve, one fresh worker per
               report; the cyclic scan, root systems and descent.
  curve        cold `wildinv report --curve` the same way; field
               construction and point counting.
  batch        one warm process timing full_report(...).to_json() over the
               frozen seeded list in batch_inputs.json.

Every run attempts whole passes ("rounds") over its workload's inputs in an
order drawn from --seed, starting another pass while it is predicted to end
within --seconds. Every report is checked by checks.py outside the timed
region. --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
wraps wildinv's public functions (tracer.py) and prints the per-layer
metrics, per round, with the spans written to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Workers run with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1
and never under -O.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
BATCH_SETUP_PROBES = 8
# Workers are pinned to the CPUs in turn: on a shared host one CPU can run
# 10-35 % slower than another for minutes, and a run whose workers all land
# on one of them reads that CPU's speed.
CPUS = sorted(os.sched_getaffinity(0))

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import SPAN_CAP  # noqa: E402

COLD = {"primitivity": inputs.PRIMITIVITY, "curve": inputs.CURVE}
WORKLOADS = ("primitivity", "curve", "batch")
# what the run-level self-test must have altered and seen rejected
SELF_TEST_LABELS = {"primitivity": {"swan", "gram", "gram diagonal"},
                    "curve": {"swan", "gram", "gram diagonal", "count", "zeta"},
                    "batch": {"swan", "gram", "gram diagonal", "count", "zeta"}}
# functions whose calls, total_s and self_s are per-layer metrics
LAYER_FUNCTIONS = (
    "cli.run", "invariants.full_report", "invariants.primitivity",
    "ambient.build_context", "sympmod.build", "addpoly.kernel_basis",
    "sympmod.cyclic_submodule", "sympmod.completely_anisotropic",
    "sympmod.decomposition_witness", "sympmod.minimal_imprimitive_unramified_degree",
    "rootsys.monomial_root_system", "rootsys.matches_module",
    "quotient.iterated_quotient", "quotient.verify_morphism",
    "counts.curve_summary", "counts.value_distribution", "counts.zeta_numerator",
    "counts.psi_l_polynomial", "counts.check_supersingular",
    "ff.field_create", "ff.poly_roots", "linalg.rref",
)


def speed_probe():
    """A fixed pure-Python loop; its time shows drift of the machine."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def worker_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.env = worker_env()
        self.rounds = 0
        self.attempted = 0
        self.failures = []
        self.samples = []  # (input name, report seconds)
        self.setups = []
        self.rss_kb = []
        self.loop_wall = 0.0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.traces = []
        self.self_test = ([], [])

    def spawn(self, args, cpu=None):
        """Run one worker to its end, pinned to `cpu` if given; returns
        (result or None, wall, error)."""
        timeout = max(10.0, DEADLINE_S - (time.monotonic() - self.start))
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                                  text=True, env=self.env, cwd=ROOT, timeout=timeout,
                                  preexec_fn=pin)
        except subprocess.TimeoutExpired:
            return None, time.monotonic() - t_spawn, f"timed out after {timeout:.0f} s"
        wall = time.monotonic() - t_spawn
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, wall, f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        res = json.loads(lines[-1])
        self.setups.append(res["t_imported"] - t_spawn)
        self.rss_kb.append(res["maxrss_kb"])
        return res, wall, None

    def fail(self, name, error):
        self.failures.append({"name": name, "error": error})

    # -- cold workloads ------------------------------------------------------

    def cold_report(self, spec, traced, report_id, cpu):
        """One report in a fresh worker; returns its parsed document or None."""
        self.attempted += 1
        args = ["cold", "--trace", str(int(traced)), "--report-id", str(report_id),
                "--", *inputs.report_argv(spec)]
        res, wall, err = self.spawn(args, cpu)
        if err or res["rc"] != 0:
            self.fail(spec["name"], err or res["error"] or f"exit {res['rc']}")
            return None
        try:
            doc = json.loads(res["out"])
        except ValueError:
            self.fail(spec["name"], "report is not JSON")
            return None
        problems = checks.check_report(spec, doc)
        if problems:
            self.failures.append({"name": spec["name"], "check": problems})
            return None
        if traced:
            self.traced_s += res["report_s"]
            self.traces.append(res["trace"])
        elif self.trace:
            self.untraced_s += res["report_s"]
        else:
            self.samples.append((spec["name"], res["report_s"]))
            self.loop_wall += wall
        return doc

    def run_cold(self, specs):
        rng = random.Random(self.seed)
        pairs, last = [], 0.0
        while self.rounds == 0 or time.monotonic() - self.start + last <= self.seconds:
            r0 = time.monotonic()
            order = list(enumerate(specs))
            rng.shuffle(order)
            for i, (j, spec) in enumerate(order):
                report_id = self.rounds * len(order) + i
                # each input moves to the next CPU every round
                cpu = CPUS[(j + self.rounds) % len(CPUS)]
                doc = self.cold_report(spec, False, report_id, cpu)
                if self.trace:
                    doc = self.cold_report(spec, True, report_id, cpu)
                if doc and self.rounds == 0:
                    pairs.append((spec, doc))
            if self.rounds == 0:
                # one report with a curve section and one with a module suffice
                pick = [next((sd for sd in pairs if sd[1]["curve"]), None),
                        next((sd for sd in pairs if sd[1]["module"]["dim"]), None)]
                self.self_test = checks.self_test([sd for sd in pick if sd])
            self.rounds += 1
            last = time.monotonic() - r0

    # -- warm workload -------------------------------------------------------

    def setup_probes(self):
        for k in range(BATCH_SETUP_PROBES):
            self.attempted += 1
            _, _, err = self.spawn(["probe"], CPUS[k % len(CPUS)])
            if err:
                self.fail("setup probe", err)

    def run_batch(self):
        # import-only workers before and after the batch worker give setup_s
        # samples from both ends of the run
        self.setup_probes()
        res, _, err = self.spawn(["batch", "--seed", str(self.seed),
                                  "--seconds", str(self.seconds), "--trace", str(self.trace)])
        self.setup_probes()
        if err:
            n = len(inputs.load_batch()[0])
            self.attempted += n
            self.failures.extend({"name": "batch worker", "error": err} for _ in range(n))
            return
        self.rounds = res["rounds"]
        self.attempted += res["attempted"]
        self.failures.extend(res["failures"])
        self.self_test = tuple(res["self_test"])
        if self.trace:
            self.untraced_s, self.traced_s = res["untraced_s"], res["traced_s"]
            self.traces.append(res["trace"])
        else:
            self.samples = [tuple(s) for s in res["samples"]]
            self.loop_wall = res["loop_wall_s"]

    # -- metrics -------------------------------------------------------------

    def end_to_end(self):
        per_input = defaultdict(list)
        for name, secs in self.samples:
            per_input[name].append(secs)
        medians = {name: statistics.median(v) for name, v in per_input.items()}
        # percentiles over inputs, each weighed once whatever the rounds
        meds = sorted(medians.values())
        return {
            "solve_s": sum(meds),
            "report_geomean_s": math.exp(statistics.fmean(math.log(m) for m in meds)),
            "reports_per_s": len(self.samples) / self.loop_wall,
            "report_p50_s": statistics.median(meds),
            "report_p90_s": (statistics.quantiles(meds, n=10, method="inclusive")[-1]
                             if len(meds) > 1 else meds[0]),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": max(self.rss_kb) / 1024,
        }, medians

    def per_layer(self):
        """Traced figures per round: the sums over all traced reports
        divided by the number of rounds."""
        funcs = defaultdict(lambda: [0, 0.0, 0.0])
        extra = defaultdict(float)
        for tr in self.traces:
            for name, vals in tr["functions"].items():
                for j in range(3):
                    funcs[name][j] += vals[j]
            for key in ("mul_calls", "fields_built", "field_build_s", "vd_distinct"):
                extra[key] += tr[key]
        n = self.rounds

        def per_round(x):
            return x // n if isinstance(x, int) and x % n == 0 else x / n

        out = {}
        for name in LAYER_FUNCTIONS:
            calls, total, self_s = funcs[name]
            out[f"{name}.calls"] = per_round(calls)
            out[f"{name}.total_s"] = total / n
            out[f"{name}.self_s"] = self_s / n
        vd_calls = funcs["counts.value_distribution"][0]
        out.update({
            "ff.fields_built": per_round(int(extra["fields_built"])),
            "ff.field_build_s": extra["field_build_s"] / n,
            "ff.mul_calls": per_round(int(extra["mul_calls"])),
            "sympmod.vectors_scanned": out["sympmod.cyclic_submodule.calls"],
            "counts.value_distribution.distinct": per_round(int(extra["vd_distinct"])),
            "counts.value_distribution.distinct_ratio":
                extra["vd_distinct"] / vd_calls if vd_calls else 0.0,
            "cli.overhead_s": (out["cli.run.total_s"] - out["invariants.full_report.total_s"]
                               if out["cli.run.calls"] else 0.0),
            "trace.overhead_s": (self.traced_s - self.untraced_s) / n,
        })
        return out, funcs

    def write_trace(self, funcs):
        """All wrapped functions per round, and the spans, to .perfbench_out/."""
        names, spans, dropped = {}, [], 0
        for tr in self.traces:
            dropped += tr["dropped"]
            for sid, name, t0, t1, parent, report in tr["spans"]:
                if len(spans) >= SPAN_CAP:
                    dropped += 1
                    continue
                idx = names.setdefault(name, len(names))
                spans.append([report, sid, idx, t0, t1, parent])
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{self.workload}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": self.workload, "seed": self.seed, "rounds": self.rounds,
                "functions_per_round": {k: [v[0] / self.rounds, v[1] / self.rounds,
                                            v[2] / self.rounds] for k, v in sorted(funcs.items())},
                "span_fields": ["report", "id", "name", "start", "end", "parent"],
                "names": list(names), "spans": spans, "spans_dropped": dropped,
            }, fh)
        return path


def run_workload(name, seed, seconds, trace):
    """(details, correct, attempted, failed, metrics) of one run of one workload."""
    probe_start = speed_probe()
    run = Run(name, seed, seconds, trace)
    if name == "batch":
        run.run_batch()
    else:
        run.run_cold(COLD[name])
    tested, problems = run.self_test
    missing = SELF_TEST_LABELS[name] - set(tested)
    # a report that fails a check is wrong output; one that raises is only failed
    correct = not any("check" in f for f in run.failures) and not problems and not missing
    details = {
        "workload": name, "seed": seed, "trace": trace, "rounds": run.rounds,
        "attempted": run.attempted, "failed": len(run.failures), "failures": run.failures[:5],
        "self_test": {"altered": tested, "problems": problems, "missing": sorted(missing)},
        "probe_s": [probe_start, speed_probe()], "wall_s": time.monotonic() - run.start,
    }
    if trace:
        metrics, funcs = run.per_layer()
        details["trace_file"] = str(run.write_trace(funcs).relative_to(ROOT))
    elif run.samples:
        metrics, medians = run.end_to_end()
        details["per_input_median_s"] = medians
        details["samples"] = len(run.samples)
    else:
        metrics = {}
    return details, correct, run.attempted, len(run.failures), metrics


def main():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: it strips wildinv's assert checks")
    if not (ROOT / "src" / "wildinv" / "__init__.py").is_file():
        sys.exit(f"no wildinv sources under {ROOT / 'src'}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct, attempted, failed, final = True, 0, 0, {}
    for name in names:
        details, correct, att, fl, metrics = run_workload(name, args.seed, args.seconds,
                                                          args.trace)
        print(json.dumps(details))
        missing = [m for m, _ in declared if m not in metrics]
        if missing and fl < att:
            sys.exit(f"{name}: metrics not computed: {missing}")
        for metric, unit in declared:
            if metric in metrics:
                print(f"{name:12s} {metric:58s} {metrics[metric]:>14.6g} {unit}")
                key = metric if len(names) == 1 else f"{name}/{metric}"
                final[key] = {"value": metrics[metric], "unit": unit}
        print(f"{name:12s} attempted {att}, failed {fl}, correct {str(correct).lower()}")
        all_correct &= correct
        attempted += att
        failed += fl
    print(json.dumps({"correct": all_correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))


if __name__ == "__main__":
    main()
