"""cohomlab benchmark: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload fuzz-mix --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  Nothing is built: the package is pure
Python and is imported from the checkout's src/.  A run

  1. times set-up: importing cohomlab in a fresh child interpreter plus
     generating the workload's inputs from the seed, SETUP_REPEATS times,
     and reports the median;
  2. runs ops over the inputs in turn, one after another on one thread,
     until every input has run once and --seconds of op time have
     passed, and checks every op's output with the workload's oracle;
  3. with --trace 1, runs each input TRACE_ROUNDS more times with the
     layer tracer installed, each time next to a run without it, scales
     span times to reference speed and writes the spans to
     perfbench/.out/.

Times are quoted at reference host speed (see speed.py): each op's and
each set-up's wall time is scaled by how fast a fixed kernel ran around
it, and each input's op time is the median over its runs.  The wall
times before scaling are printed on a '#' line.

Informational lines start with '#'.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, holding
the end-to-end metrics with --trace 0 and the per-layer ones with
--trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
SHOWN_FAILURES = 3  # failed ops whose traceback goes to standard error
TRACE_ROUNDS = 3  # untraced and traced runs of each input with --trace 1

# Timed in a fresh child interpreter: the import a user of the CLI pays.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import cohomlab.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _child_import_s():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("importing cohomlab failed:\n" + proc.stderr)
    return float(proc.stdout.strip())


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_ops(wl, inputs, seconds, probe, tracer=None):
    """Ops over the inputs in turn until each has run once and `seconds`
    of op time have passed.

    Returns (times, marks, failures, digests): times[i] lists the op
    times of input i and marks[i] the probe's sample count as each op
    began; digests hold the output digests of the first pass.
    """
    times = [[] for _ in inputs]
    marks = [[] for _ in inputs]
    failures, digests = [], []
    busy, done = 0.0, 0
    while done < len(inputs) or busy < seconds:
        idx = done % len(inputs)
        inp = inputs[idx]
        marks[idx].append(probe.catch_up(busy))
        err = None
        if tracer is not None:
            tracer.op = tracer.ops_run
        t0 = perf_counter()
        try:
            out = wl.run(inp)
        except Exception as e:  # an engine crash is a failed op, not the end
            err = e
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
            tracer.ops_run += 1
        if err is None:
            try:
                wl.check(inp, out)
                # digests stay out of the traced pass, whose spans and
                # counts are the ops' own
                if done < len(inputs) and tracer is None:
                    digests.append(wl.digest(out))
            except Exception as e:  # oracle miss or malformed output
                err = e
        if err is not None:
            failures.append((done, idx, err))
        times[idx].append(dt)
        busy += dt
        done += 1
    probe.finish()
    return times, marks, failures, digests


def time_setup(wl):
    """Median over SETUP_REPEATS of import plus input generation, scaled
    to the reference speed by kernel samples taken around each repeat.

    Returns (scaled median, raw median, inputs).
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        around = [speed.kernel_s() for _ in range(speed.WINDOW)]
        t = _child_import_s()
        t0 = perf_counter()
        inputs = wl.make_inputs()
        t += perf_counter() - t0
        around += [speed.kernel_s() for _ in range(speed.WINDOW)]
        raw.append(t)
        scaled.append(t * speed.REF_S / statistics.median(around))
    return statistics.median(scaled), statistics.median(raw), inputs


def _summary(per_input_s):
    return (len(per_input_s) / sum(per_input_s),
            1000 * statistics.median(per_input_s),
            1000 * statistics.quantiles(per_input_s, n=10,
                                        method="inclusive")[8])


def end_to_end(scaled, setup_s):
    """End-to-end metrics from each input's median op time at reference
    speed."""
    ops_per_s, p50_ms, p90_ms = _summary(scaled)
    return {
        "ops_per_s_at_ref": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_ms_at_ref": {"value": p50_ms, "unit": "ms"},
        "op_p90_ms_at_ref": {"value": p90_ms, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _report_failures(failures):
    for op, idx, err in failures[:SHOWN_FAILURES]:
        print("op %d (input %d) failed:" % (op, idx), file=sys.stderr)
        traceback.print_exception(type(err), err, err.__traceback__,
                                  file=sys.stderr)


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cohomlab", "__init__.py")):
        print("error: no cohomlab package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s, raw_setup_s, inputs = time_setup(wl)
        probe = speed.SpeedProbe()
        times, marks, failures, digests = run_ops(wl, inputs, args.seconds, probe)
        attempted = sum(map(len, times))
        scaled = [statistics.median(t * probe.scale(m) for t, m in zip(ts, ms))
                  for ts, ms in zip(times, marks)]
        print("# python %s, nproc %d, cpu %s, commit %s"
              % (platform.python_version(), os.cpu_count(), _cpu_model(),
                 _git_commit()))
        print("# workload %s, seed %d: %d ops over %d inputs, %.3f s of op "
              "time, failed_share %.6f (%d of %d ops)"
              % (wl.name, args.seed, attempted, len(inputs),
                 sum(map(sum, times)), len(failures) / attempted,
                 len(failures), attempted))
        print("# wall time, not scaled: ops_per_s %.4f, op_p50_ms %.4f, "
              "op_p90_ms %.4f, setup_s %.4f; kernel median %.4f ms over %d "
              "samples" % (_summary([statistics.median(t) for t in times])
                           + (raw_setup_s, 1000 * statistics.median(
                               probe.samples), len(probe.samples))))
        fp = hashlib.sha256("".join(d + "\n" for d in digests).encode())
        print("# fingerprint sha256:%s over %d outputs"
              % (fp.hexdigest(), len(digests)))

        if args.trace:
            metrics, traced_ops, traced_failures = _traced(
                wl, inputs, sum(scaled), args)
            attempted += traced_ops
            failures += traced_failures
        else:
            metrics = end_to_end(scaled, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _report_failures(failures)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _traced(wl, inputs, untraced_s, args):
    """TRACE_ROUNDS rounds of each input run without and with the tracer.

    Returns the per-layer metrics, the number of ops run and the failed
    ones.  Host speed changes during an op too: back to back, one input's
    op time moves by up to 40%, scaled or not, so a traced pass set
    against the timed pass would measure the host.  The two runs of an
    input are made next to each other instead, in alternating order; the
    overhead share is the median over the rounds of traced over untraced
    op time, and trace.overhead_s is that share of `untraced_s`, the
    timed pass's op time at reference speed.  Span self times are scaled
    op by op and averaged over the traced ops.
    """
    import tracer as tracing

    tr = tracing.Tracer()
    ratios, op_scales, failures = [], [], []
    ops = 0
    for rnd in range(TRACE_ROUNDS):
        spent = {False: 0.0, True: 0.0}
        for idx, inp in enumerate(inputs):
            for traced in ((False, True) if (rnd + idx) % 2 == 0
                           else (True, False)):
                probe = speed.SpeedProbe()
                if traced:
                    tr.install()
                try:
                    times, marks, fails, _ = run_ops(
                        wl, [inp], 0, probe, tr if traced else None)
                finally:
                    tr.uninstall()
                failures += [(ops, idx, err) for _op, _i, err in fails]
                ops += 1
                spent[traced] += times[0][0]
                if traced:
                    op_scales.append(probe.scale(marks[0][0]))
        ratios.append(spent[True] / spent[False])
    share = statistics.median(ratios) - 1
    values = tr.metrics(op_scales, share, untraced_s)
    outdir = os.path.join(HERE, ".out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "trace-%s-seed%d.tsv" % (wl.name, args.seed))
    tr.write(path)
    print("# traced over untraced op time in %d rounds: %s; %d spans in %s"
          % (TRACE_ROUNDS, ", ".join("%.4f" % r for r in ratios),
             len(tr.starts), os.path.relpath(path, ROOT)))
    for name, unit, _better, moves in tracing.LAYER_METRICS:
        print("# %-40s %14.6g %-8s moves %s" % (name, values[name], unit, moves))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _b, _m in tracing.LAYER_METRICS}
    return metrics, ops, failures


if __name__ == "__main__":
    sys.exit(main())
