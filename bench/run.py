#!/usr/bin/env python3
"""superkit benchmark: four fixed workloads, a machine-speed probe, traced layers.

    python3 bench/run.py --workload nf-oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

It may be started from any directory: it changes to the repository root
and imports superkit from `src/` there, so no install is needed.  A
workload runs in one process, one item at a time (a closed loop with a
single caller).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The same
result, with the input digest and the raw-time figures, is written to
bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

# both import only the standard library until a workload is built
from layers import Tracer, import_times
from workloads import WORKLOADS, Failed, Wrong

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# set-up is measured in fresh processes, at least SETUP_SAMPLES of them and
# more while they take under SETUP_BUDGET_S together (cheap set-ups are
# noisy), at most SETUP_MAX; the median counts
SETUP_SAMPLES, SETUP_BUDGET_S, SETUP_MAX = 3, 2.0, 9

# kernels run by one probe process
PROCESS_PROBE_REPS = 16


# -- machine-speed probe ----------------------------------------------------


def probe_kernel():
    """Fixed stdlib work of the kind superkit does: exact Fraction sums and
    dict updates.  It imports nothing from superkit, so its time follows
    only the speed the machine gives this process."""
    acc = Fraction(0)
    counts = {}
    for i in range(1, 240):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = i % 17
        counts[key] = counts.get(key, 0) + i
    return acc, counts


PROBE_RESULT = probe_kernel()


def probe(reps):
    """Seconds for `reps` probe kernels."""
    t0 = perf_counter()
    for _ in range(reps):
        if probe_kernel() != PROBE_RESULT:
            raise RuntimeError("probe kernel gave a different result")
    return perf_counter() - t0


PROBE_SOURCE = "from fractions import Fraction\n" + inspect.getsource(probe_kernel)


def probe_process():
    """Seconds for a fresh interpreter that runs PROCESS_PROBE_REPS kernels.

    Work done in processes of their own runs on whichever core the system
    gives it, so its probe is a process too."""
    t0 = perf_counter()
    source = PROBE_SOURCE + "for _ in range(%d):\n    probe_kernel()\n" % PROCESS_PROBE_REPS
    subprocess.run([sys.executable, "-c", source], check=True)
    return perf_counter() - t0


def probe_unit(workload):
    """A function giving the time of one probe unit for this workload:
    one kernel in this process, or one probe process."""
    if workload.subprocess_items:
        return probe_process
    reps = workload.probe_reps
    return lambda: probe(reps) / reps


# -- running items ----------------------------------------------------------


class Tally:
    """Attempted, failed and wrong items; each distinct problem is printed once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._seen = set()

    def record(self, item, result, error):
        self.attempted += 1
        if error is None:
            try:
                item.check(result)
                return
            except Failed as exc:
                error = exc
            except Wrong as exc:
                self.wrong += 1
                self._report("WRONG", item, exc)
                return
        self.failed += 1
        self._report("FAILED", item, error)

    def _report(self, kind, item, exc):
        key = (kind, item.label)
        if key not in self._seen:
            self._seen.add(key)
            print("%s %s: %s: %s" % (kind, item.label[:160], type(exc).__name__, exc),
                  file=sys.stderr)


def call(fn):
    try:
        return fn(), None
    except Exception as exc:  # an item that raises counts as failed
        return None, exc


def timed_rounds(workload, seconds, tally):
    """Whole rounds until `seconds` have passed; a probe just before and just
    after each item."""
    unit = probe_unit(workload)
    item_s, probe_s = [], []
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        for item in workload.items:
            p0 = unit()
            t0 = perf_counter()
            result, error = call(item.run)
            t1 = perf_counter()
            p1 = unit()
            item_s.append(t1 - t0)
            probe_s.append((p0 + p1) / 2)
            tally.record(item, result, error)
        rounds += 1
    return rounds, item_s, probe_s


def traced_rounds(workload, tracer, tally):
    """A warm-up round, then every item untraced and traced back to back.

    Items run in this process (cli-readme through superkit.cli.main).
    Which execution goes first alternates from item to item, so neither
    gains from the other's warm caches.  Returns the item time of the
    untraced and of the traced executions, each in probe units."""
    for item in workload.items:
        tally.record(item, *call(item.inprocess or item.run))
    reps = workload.probe_reps
    sums = {False: [0.0, 0.0], True: [0.0, 0.0]}
    for n, item in enumerate(workload.items):
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            p0 = probe(reps)
            tracer.enabled = traced
            t0 = perf_counter()
            result, error = call(item.inprocess or item.run)
            elapsed = perf_counter() - t0
            tracer.enabled = False
            sums[traced][0] += elapsed
            sums[traced][1] += (p0 + probe(reps)) / (2 * reps)
            tally.record(item, result, error)
    return sums[False][0] / sums[False][1], sums[True][0] / sums[True][1]


# -- set-up -----------------------------------------------------------------


def build(name, seed):
    return WORKLOADS[name](seed, ROOT)


def measure_setup(name, seed, importtime=False):
    """Seconds from process start to a built workload, in fresh processes."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"]
    seconds, stderr_texts = [], []
    while len(seconds) < SETUP_SAMPLES or (
            sum(seconds) < SETUP_BUDGET_S and len(seconds) < SETUP_MAX):
        with tempfile.TemporaryFile(dir=OUT) as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            proc.stdout.close()
            proc.wait()
            err.seek(0)
            text = err.read().decode(errors="replace")
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up process failed:\n" + text[-2000:])
        seconds.append(t1 - t0)
        stderr_texts.append(text)
    return seconds, stderr_texts


def digest(workload):
    return hashlib.sha256("\n".join(i.label for i in workload.items).encode()).hexdigest()


# -- one workload -----------------------------------------------------------


def run_timed(args):
    setup_s, _ = measure_setup(args.workload, args.seed)
    workload = build(args.workload, args.seed)
    tally = Tally()
    rounds, item_s, probe_s = timed_rounds(workload, args.seconds, tally)
    if workload.subprocess_items:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each item's median over the rounds, then the lower median over the items:
    # a value of one item, which stays put where item times cluster apart
    n = len(workload.items)
    ratios = [t / p for t, p in zip(item_s, probe_s)]
    per_item = [statistics.median(ratios[k::n]) for k in range(n)]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "work_probes": (sum(item_s) / sum(probe_s), "probe"),
        "item_probes_p50": (statistics.median_low(per_item), "probe"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    # raw wall-clock figures: printed and recorded, not gated (see README)
    figures = {
        "rounds": rounds,
        "samples": len(item_s),
        "items_per_s": len(item_s) / sum(item_s),
        "item_ms_p50": statistics.median(item_s) * 1e3,
        "setup_samples_s": setup_s,
    }
    n = len(item_s)
    if n >= 40:
        q = int(100 * (1 - 10 / n))
        figures["item_ms_p%d" % q] = statistics.quantiles(item_s, n=100)[q - 1] * 1e3
    return workload, tally, metrics, figures


def run_traced(args):
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    workload = build(args.workload, args.seed)
    tracer.enabled = False
    tally = Tally()
    t_plain, t_traced = traced_rounds(workload, tracer, tally)
    if workload.subprocess_items:
        texts = []
        for item in workload.items:
            argv = [item.argv[0], "-X", "importtime"] + item.argv[1:]
            env = dict(os.environ, PYTHONPATH=SRC)
            texts.append(subprocess.run(argv, capture_output=True, text=True,
                                        cwd=ROOT, env=env).stderr)
    else:
        _, texts = measure_setup(args.workload, args.seed, importtime=True)
    imports = [import_times(t) for t in texts]
    metrics = {k: (v["value"], v["unit"]) for k, v in tracer.metrics().items()}
    metrics["cli.import_ms"] = (statistics.median(i[0] for i in imports), "ms")
    metrics["cli.sympy_import_ms"] = (statistics.median(i[1] for i in imports), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (t_traced - t_plain) / t_plain, "%")
    figures = {"traced_round_probes": t_traced, "untraced_round_probes": t_plain}
    return workload, tally, metrics, figures


def run_one(args):
    os.makedirs(OUT, exist_ok=True)
    runner = run_traced if args.trace else run_timed
    workload, tally, metrics, figures = runner(args)
    fp_share = sum(i.fp for i in workload.items) / len(workload.items)
    print("workload %s, seed %d: %d items per round (%.0f %% over F_p), inputs sha256 %s"
          % (workload.name, args.seed, len(workload.items), 100 * fp_share,
             digest(workload)))
    print("attempted %d, failed %d, wrong %d"
          % (tally.attempted, tally.failed, tally.wrong))
    for key, value in figures.items():
        print("  %-22s %s" % (key, value))
    for key, (value, unit) in metrics.items():
        print("  %-44s %12.4f %s" % (key, value, unit))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, inputs_sha256=digest(workload), figures=figures)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args):
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("error: workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print("== summary")
    print("%-12s %9s %6s %7s  %s" % ("workload", "attempted", "failed", "correct", "metrics"))
    for name, res in results.items():
        shown = ", ".join("%s %.4g %s" % (k, m["value"], m["unit"])
                          for k, m in res["metrics"].items()
                          if not k.endswith(".calls") and not k.endswith(".self_ms"))
        print("%-12s %9d %6d %7s  %s" % (name, res["attempted"], res["failed"],
                                         res["correct"], shown))
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="nf-oracle, group-law, axiom-sweep, cli-readme or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload, print 'ready' and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "superkit", "__init__.py")):
        print("error: superkit sources not found at %s" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.workload != "all" and args.workload not in WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    if args.setup_only:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
