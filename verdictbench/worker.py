"""One benchmark worker: runs a workload's inputs through lctforge.

    python3 worker.py JOB.json RESULT.json

The job names the lctforge source tree, the inputs (certificate paths
relative to the working directory), the time budget, the set-up probe
and whether to trace.  The worker calls
``lctforge.cli.main(["verify", "--json", path])`` once per input, in
process and single-threaded, with output captured, and repeats the whole input set ("a pass") until the budget
is spent and at least ``min_passes`` passes are done.  In a traced job
passes alternate untraced / traced, so the tracing overhead is
measured against untraced passes of the same process.

Between passes the worker also times the set-up probes: fresh
interpreters that import lctforge.cli and verify a one-step
certificate.  They are spread evenly over the budget, because on a
shared machine slow spells last seconds, and probes taken back to back
would all land in the same one.  The worker waits for each probe, so
probes and passes never overlap.

In an untraced job a clock sampler (``SpeedSampler``) runs beside the
program: every few milliseconds a SIGALRM handler times a tiny fixed
Fraction kernel on the worker's own thread.  The shared machine runs
the program at full or about half speed in spells of seconds, so one
input that takes seconds is timed at whatever mix of the two the run
happens to get.  The kernel's time tells the current speed, and each
input's time is also given at a fixed reference speed, the kernel's
full speed on the baseline machine: its measured time, less the
sampler's own time, scaled by the mean of (reference kernel time /
kernel time) over the samples taken while it ran.

The result holds, per pass, its wall time and each input's time to
verdict (at reference speed in an untraced job, with the measured times
beside them); per input, each distinct (exit code, stdout, error)
outcome with how often it occurred; each probe's time and outcome; the
process's peak RSS; and, for traced passes, the per-layer metrics.
"""

import bisect
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

PROBE = ("import sys\n"
         "from lctforge import cli\n"
         "sys.exit(cli.main(['verify', '--json', sys.argv[1]]))\n")


def _kernel():
    total = Fraction(0)
    for i in range(1, 12):
        total += Fraction(1, i)
    return total


class SpeedSampler:
    """Times ``_kernel`` from a SIGALRM handler every ``period`` seconds
    while running; ``samples`` holds (start, kernel seconds) and
    ``busy`` the handler's total time."""

    # The kernel's time at full speed on the baseline machine (2 vCPUs
    # at 2000 MHz, Python 3.11.7): the 0.5% quantile of a run's samples
    # there lies between 25 and 33 us.  A fixed reference rather than
    # each run's own quantile, because that quantile falls in rare fast
    # spells and moved the runs' results by up to a fifth.
    REFERENCE_KERNEL_S = 30e-6
    # An input shorter than this many sampling periods borrows the
    # samples nearest to it in time; speed spells last far longer.
    MIN_SAMPLES = 20

    def __init__(self, period=0.005, reference=REFERENCE_KERNEL_S):
        self.period = period
        self.reference = reference
        self.samples = []
        self.busy = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.samples.append((t0, t1 - t0))
        self.busy += t1 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def at_reference_speed(self, t0, t1, own):
        """Time t0..t1, less ``own`` sampler time, at reference speed."""
        starts = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        if hi - lo < self.MIN_SAMPLES:
            lo = max(0, (lo + hi - self.MIN_SAMPLES) // 2)
            hi = lo + self.MIN_SAMPLES
        near = self.samples[lo:hi]
        return (t1 - t0 - own) * statistics.fmean(
            self.reference / k for _, k in near)


def _run_one(main, path):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(["verify", "--json", path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the benchmark reports it as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    return (t0, t1), (code, out.getvalue(), error)


def _probe(path):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, path],
                          capture_output=True, text=True, timeout=60)
    return [perf_counter() - t0, proc.returncode, proc.stdout]


def run(job):
    sys.path.insert(0, job["src"])
    from lctforge import cli

    tracer = sampler = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
    else:
        sampler = SpeedSampler()
    inputs = job["inputs"]
    outcomes = [{} for _ in inputs]
    passes, trace_spans, missing, probes = [], [], [], []
    start = perf_counter()
    while True:
        spent = perf_counter() - start
        while len(probes) < job["probes"] and \
                spent >= len(probes) * job["seconds"] / job["probes"]:
            probes.append(_probe(job["probe"]))
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            missing = tracer.install()
        timed = []
        if sampler is not None:
            sampler.start()
        t0 = perf_counter()
        for index, path in enumerate(inputs):
            if traced:
                tracer.input_id = index
            busy = sampler.busy if sampler is not None else 0.0
            span, outcome = _run_one(cli.main, path)
            own = sampler.busy - busy if sampler is not None else 0.0
            timed.append((*span, own))
            key = json.dumps(outcome)
            outcomes[index][key] = outcomes[index].get(key, 0) + 1
        wall = perf_counter() - t0
        if sampler is not None:
            sampler.stop()
        record = {"wall_s": wall, "times": [t1 - t0 for t0, t1, _ in timed],
                  "timed": timed, "traced": traced}
        if traced:
            tracer.uninstall()
            record["layers"] = tracing.layer_metrics(
                tracer.spans, tracer.counters, wall)
            trace_spans.append(tracer.spans)
        passes.append(record)
        spent = perf_counter() - start
        done = len(passes) >= job["min_passes"] and spent >= job["seconds"]
        # a traced run needs one untraced and one traced pass
        cut = len(passes) >= 1 + (tracer is not None) and \
            spent >= job["max_seconds"]
        if done or cut:
            break
    while len(probes) < job["probes"]:
        probes.append(_probe(job["probe"]))
    speed = None
    if sampler is not None:
        for record in passes:
            record["measured_times"] = record["times"]
            record["times"] = [sampler.at_reference_speed(*span)
                               for span in record["timed"]]
        kernel = sorted(k for _, k in sampler.samples)
        speed = {"samples": len(kernel),
                 "reference_kernel_s": sampler.reference,
                 "fastest_kernel_s": kernel[int(0.005 * (len(kernel) - 1))],
                 "median_kernel_s": statistics.median(kernel),
                 "busy_s": sampler.busy}
    for record in passes:
        del record["timed"]
    if tracer is not None:
        with open(job["trace_out"], "w") as fh:
            json.dump({"inputs": inputs, "passes": trace_spans,
                       "span": ["name", "start_ns", "end_ns", "parent",
                                "input"]}, fh)
    return {
        "passes": passes,
        "outcomes": [[[json.loads(k), n] for k, n in o.items()]
                     for o in outcomes],
        "probes": probes,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "untraced_functions": missing,
        "speed": speed,
    }


def main(argv):
    job_path, result_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
