"""lctforge verdict benchmark.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 verdictbench/run.py --workload all --seed N --seconds S

Writes the workload's inputs from the seed into a scratch directory of
the checkout, runs one worker process (worker.py) over them for S
seconds, which also times set-up with fresh interpreters and, untraced,
gives each input's time to verdict at a fixed reference speed (see
worker.py), and checks every verdict against its known answer.  The last line of
output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the
per-layer metrics for --trace 1.  Earlier lines give the seed, the
digest of the inputs, fail_ratio and every metric with its unit; the
full record of the run goes to .verdictbench/results/.

`--workload all` runs every workload untraced in turn and prints one
table of all end-to-end metrics and fail_ratio, by name with unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".verdictbench"

SETUP_PROBES = 11
MIN_PASSES = {0: 3, 1: 4}
# Stop starting passes after this long, so a much slower program still
# ends well inside the three-minute limit on one run.
MAX_SECONDS = 120

PROBE_CERT = 'cert "setup probe"\nassert 1 == 1\n'


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(work, paths, seconds, trace, trace_out):
    probe = work / "probe.cert"
    probe.write_text(PROBE_CERT)
    job = {"src": str(SRC), "inputs": paths, "seconds": seconds,
           "min_passes": MIN_PASSES[trace], "max_seconds": MAX_SECONDS,
           "probe": str(probe), "probes": SETUP_PROBES,
           "trace": bool(trace), "trace_out": str(trace_out)}
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path),
         str(result_path)],
        cwd=work / "inputs", env=_env(), timeout=170)
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text())


def check_outcomes(inputs, outcomes, probes):
    """(attempted, failed, first mismatch of each failing input)."""
    attempted = failed = 0
    problems = {}
    probe = workloads.Expect(statuses=["PASS"])
    for _, code, stdout in probes:
        attempted += 1
        bad = workloads.mismatches(probe, code, stdout)
        if bad:
            failed += 1
            problems.setdefault("setup probe", bad)
    for inp, seen in zip(inputs, outcomes):
        for (code, stdout, error), count in seen:
            attempted += count
            bad = workloads.mismatches(inp.expect, code, stdout, error)
            if bad:
                failed += count
                problems.setdefault(inp.path, bad)
    return attempted, failed, problems


def mean_times(passes, key="times"):
    """Each input's mean time to verdict over the passes."""
    return [statistics.fmean(t) for t in zip(*(p[key] for p in passes))]


def end_to_end(untraced, probes, peak_rss_mb):
    times = mean_times(untraced)
    return {
        "wall_s": sum(times),
        "verdict_s_max": max(times),
        "setup_s": statistics.median(p[0] for p in probes),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(untraced, traced):
    names = traced[0]["layers"]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in names}
    out["trace.overhead_ratio"] = (sum(mean_times(traced))
                                   / sum(mean_times(untraced)))
    return out


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns (result line, full record)."""
    STATE.mkdir(exist_ok=True)
    (STATE / "results").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE))
    try:
        inputs = workloads.generate(name, seed, work / "inputs",
                                    SRC / "lctforge" / "data")
        digest = workloads.digest(work / "inputs")
        trace_out = STATE / "results" / f"{name}-seed{seed}-spans.json"
        result = run_worker(work, [i.path for i in inputs], seconds, trace,
                            trace_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems = check_outcomes(
        inputs, result["outcomes"], result["probes"])
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    if trace:
        metrics = per_layer(untraced, [p for p in passes if p["traced"]])
    else:
        metrics = end_to_end(untraced, result["probes"],
                             result["peak_rss_mb"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs_sha256": digest, "inputs": [i.path for i in inputs],
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "problems": problems,
        "setup_samples_s": [p[0] for p in result["probes"]],
        "untraced_functions": result["untraced_functions"],
        "speed": result["speed"],
        "passes": passes, "metrics": metrics,
    }
    (STATE / "results" / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, record


def _result_line(line, units):
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in line["metrics"].items()}
    return json.dumps(dict(line, metrics=metrics))


def _report(record, units):
    print(f"workload {record['workload']} seed {record['seed']} "
          f"inputs {len(record['inputs'])} "
          f"sha256 {record['inputs_sha256']}")
    print(f"passes {len(record['passes'])} attempted {record['attempted']} "
          f"failed {record['failed']} fail_ratio {record['fail_ratio']:g}")
    for input_id, bad in record["problems"].items():
        print(f"  MISMATCH {input_id}: {bad[0]}")
    if record["untraced_functions"]:
        print("  not traced (not found): "
              + ", ".join(record["untraced_functions"]))
    speed = record["speed"]
    if speed is not None:
        untraced = [p for p in record["passes"] if not p["traced"]]
        measured = mean_times(untraced, "measured_times")
        print(f"  clock samples {speed['samples']}: kernel "
              f"{speed['reference_kernel_s'] * 1e6:.1f} us at reference "
              f"speed, {speed['fastest_kernel_s'] * 1e6:.1f} us fastest "
              f"(0.5% quantile), {speed['median_kernel_s'] * 1e6:.1f} us "
              f"median; as measured "
              f"wall_s {sum(measured):.6g} s, "
              f"verdict_s_max {max(measured):.6g} s")
    for metric, value in record["metrics"].items():
        print(f"  {metric} = {value:.6g} {units.get(metric, '')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lctforge" / "cli.py").is_file():
        print(f"no lctforge source tree at {SRC}", file=sys.stderr)
        return 2
    units = _units()
    if args.workload != "all":
        line, record = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        _report(record, units)
        print(_result_line(line, units))
        return 0
    lines = {}
    for name in workloads.WORKLOADS:
        line, record = run_workload(name, args.seed, args.seconds, 0)
        _report(record, units)
        lines[name] = line
    print(f"{'workload':<18} {'metric':<14} {'value':>12}  unit")
    for name, line in lines.items():
        rows = dict(line["metrics"],
                    fail_ratio=line["failed"] / line["attempted"])
        for metric, value in rows.items():
            print(f"{name:<18} {metric:<14} {value:>12.6g}  "
                  f"{units.get(metric, 'share')}")
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
