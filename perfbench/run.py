#!/usr/bin/env python3
"""Preference SQL benchmark: build the benchmark program from this checkout and run it.

One run (the form BENCHMARK.json names; the last stdout line is the result):
  python3 perfbench/run.py --workload search_cold --seed 1 --seconds 25 --trace 0

Repeat a workload over consecutive seeds and summarize (outputs are kept
under .bench_out/runs/<tag>/):
  python3 perfbench/run.py --repeat 10 --workload search_cold [--tag base]

Summarize saved run outputs (median, quartiles, spread per metric and
workload; with --baseline, the change of each median against the
baseline's). Exits 1 when a spread (setup_s aside) exceeds its bound in
BENCHMARK.json or a median is worse than the baseline's by more than it:
  python3 perfbench/run.py --summarize RUN_FILES... [--baseline RUN_FILES...]

Smoke test of the benchmark itself (toy sizes, every workload, both modes):
  python3 perfbench/run.py --smoke
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark program; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(args):
    """Runs the benchmark program once; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        out = e.stdout or ""
        return 1, out if isinstance(out, str) else out.decode()
    return proc.returncode, proc.stdout


def run_args(workload, seed, seconds, trace, toy=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--out-dir", OUT_DIR]
    return args + (["--toy"] if toy else [])


def parse_run(text):
    """The RESULT record and the final result object of one run's stdout."""
    record, result = None, None
    lines = [l for l in text.splitlines() if l.strip()]
    for line in lines:
        if line.startswith("RESULT "):
            record = json.loads(line[len("RESULT "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return record, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(files, baseline_files=()):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def collect(paths):
        groups = {}
        for path in paths:
            with open(path) as f:
                record, _ = parse_run(f.read())
            if record is None:
                log("no RESULT line in %s" % path)
                continue
            key = (record["workload"], record["trace"])
            group = groups.setdefault(key, {})
            for section in ("metrics", "extras"):
                for name, m in record[section].items():
                    group.setdefault(name, (m["unit"], []))[1].append(m["value"])
            ref = record["host"]
            group.setdefault("host.ref_loop_ms_before", ("ms", []))[1].append(
                ref["ref_loop_ms_before"])
        return groups

    groups = collect(files)
    base = collect(baseline_files)
    worst = 0
    for (workload, trace), metrics in sorted(groups.items()):
        print("== %s (trace %d)" % (workload, trace))
        print("  %-38s %6s %3s %12s %12s %12s %8s %7s%s" % (
            "metric", "unit", "n", "q1", "median", "q3", "spread", "bound",
            "  vs baseline" if base else ""))
        for name, (unit, values) in metrics.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag, worst = " OVER BOUND", max(worst, 2)
                elif spread > bound / 3:
                    flag, worst = " over bound/3", max(worst, 1)
            line = "  %-38s %6s %3d %12.6g %12.6g %12.6g %7.2f%% %7s" % (
                name, unit, len(values), q1, med, q3, 100 * spread,
                "" if bound is None else "%.0f%%" % (100 * bound))
            other = base.get((workload, trace), {}).get(name)
            if other:
                base_med = statistics.median(other[1])
                if base_med:
                    change = (med - base_med) / abs(base_med)
                    line += "  %+7.2f%%" % (100 * change)
                    better = bounds.get(name, {}).get("better")
                    worse = change if better == "lower" else -change
                    if bound is not None and worse > bound:
                        line += " WORSE THAN BOUND"
                        worst = max(worst, 2)
            print(line + flag)
    return worst


def check_run(spec, trace, code, text):
    """Smoke assertions on one toy run; returns a list of failures."""
    errors = []
    record, result = parse_run(text)
    if code != 0:
        errors.append("exit code %d" % code)
    if result is None or set(result) != RESULT_KEYS:
        return errors + ["last line is not the result object"]
    if result["correct"] is not True:
        errors.append("correct is not true")
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append("attempted/failed = %s/%s" % (result["attempted"],
                                                    result["failed"]))
    expected = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        errors.append("metrics %s, expected %s" % (sorted(result["metrics"]),
                                                   sorted(names)))
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is not None and got.get("unit") != m["unit"]:
            errors.append("%s has unit %s, expected %s" % (
                m["name"], got.get("unit"), m["unit"]))
    if record is None:
        errors.append("no RESULT line")
    elif not trace and record["extras"].get("error_rate", {}).get("value") != 0:
        errors.append("error_rate is not 0")
    return errors


def check_bare():
    """The command must fail, without a result, in a directory holding only
    BENCHMARK.json and the benchmark's own files (no program to build)."""
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in load_spec()["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=RUN_TIMEOUT_S)
    _, result = parse_run(proc.stdout)
    shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and result is None


def smoke():
    spec = load_spec()
    build()
    failures = 0
    bare_ok = check_bare()
    print("smoke %-29s %s" % ("bare directory", "ok" if bare_ok else
                               "FAIL: succeeded or printed a result"))
    failures += not bare_ok
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, text = run_binary(run_args(workload, 1, 2, trace, toy=True))
            errors = check_run(spec, trace, code, text)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print("smoke %-20s trace=%d %s" % (workload, trace, status))
            failures += bool(errors)
    return 1 if failures else 0


def repeat(args):
    spec = load_spec()
    workloads = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    run_dir = os.path.join(OUT_DIR, "runs", args.tag)
    os.makedirs(run_dir, exist_ok=True)
    build()
    files = []
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.repeat):
            code, text = run_binary(run_args(workload, seed, seconds,
                                             args.trace))
            path = os.path.join(run_dir, "%s_trace%d_seed%d.txt" % (
                workload, args.trace, seed))
            with open(path, "w") as f:
                f.write(text)
            log("%s seed %d: exit %d" % (workload, seed, code))
            if code != 0:
                return code
            files.append(path)
    return 1 if summarize(files) >= 2 else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summarize", nargs="+", metavar="RUN_FILE")
    parser.add_argument("--baseline", nargs="+", default=(), metavar="RUN_FILE")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--tag", default="latest")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if args.summarize:
        return 1 if summarize(args.summarize, args.baseline) >= 2 else 0
    if args.smoke:
        return smoke()
    if args.repeat:
        return repeat(args)
    if not args.workload or args.seconds is None:
        parser.error("--workload and --seconds are required for a run")
    build()
    code, text = run_binary(run_args(args.workload, args.seed, args.seconds,
                                     args.trace))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
