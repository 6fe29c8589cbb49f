#!/usr/bin/env python3
"""Build and run the rotsv screening benchmark.

Run from the root of a checkout:

  python3 rotsv_bench/run.py --workload lot_4v --seed 7 --seconds 28 --trace 0
      one workload; the last stdout line is its JSON result
  python3 rotsv_bench/run.py [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
      every workload, each in its own process; prints all metrics with units
      and writes BENCH_rotsv.json (hardware, build type, commit)
  python3 rotsv_bench/run.py --smoke
      tiny lots: correctness, digest identity at 1 and 4 threads, metric names
  python3 rotsv_bench/run.py --compare BASE.json... -- HEAD.json...
      medians, quartiles and pairs won per workload x metric, labelled
      improved / regressed / unchanged / unresolved against BENCHMARK.json

The benchmark is built from source into .bench_build/ (Release, CMake);
results, traces and scratch stores go to .bench_build/out/.
"""
import argparse
import glob
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "out")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["lot_4v", "lot_1v_pair", "serve_lot", "serve_replay"]
DEFAULT_SEED = 20130318


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "rotsv_bench"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "rotsv_bench")


def bench_args(binary, workload, seed, seconds, trace, extra=()):
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", OUT_DIR, "--expected", EXPECTED, *extra]


def run_child(args):
    """Runs one workload process; returns (exit code, stdout lines, result)."""
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def hardware():
    info = {"logical_cpus": os.cpu_count(), "machine": platform.machine(),
            "kernel": platform.release()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as f:
            info["mem_total"] = f.readline().split(":", 1)[1].strip()
    except OSError:
        pass
    return info


def commit():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True).stdout.strip()
        return head + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def run_all(args):
    binary = build()
    traces = [0, 1] if args.trace == 1 else [0]
    report = {"bench": "rotsv_bench", "seed": args.seed, "seconds": args.seconds,
              "build_type": build_type(), "commit": commit(), "hardware": hardware(),
              "workloads": {}}
    ok = True
    for trace in traces:
        for workload in WORKLOADS:
            code, lines, result = run_child(bench_args(binary, workload, args.seed,
                                                       args.seconds, trace))
            label = "traced" if trace else "untraced"
            print(f"== {workload} ({label}) ==")
            for line in lines[:-1]:
                print(line)
            if code != 0 or result is None or not result.get("correct"):
                ok = False
                print(f"FAILED: exit {code}")
            report["workloads"].setdefault(workload, {})[label] = result
            sys.stdout.flush()
    path = args.json or os.path.join(OUT_DIR, "BENCH_rotsv.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")
    return 0 if ok else 1


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def spec_problems(spec):
    """Limits BENCHMARK.json must respect, checked before anything runs."""
    problems = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        if not re.match(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$", name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads differ from run.py's")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why of {w['name']} is not one line of at most 200 characters")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]) or m["better"] not in (
                "higher", "lower"):
            problems.append(f"bad unit or direction for {m['name']}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("an end-to-end bound is outside (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("setup_s must exist and carry the largest bound")
    return problems


def run_smoke(args):
    binary = args.bin or build()
    spec = load_benchmark()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = spec_problems(spec)
    for workload in WORKLOADS:
        digests = {}
        for threads, trace in ((4, 0), (1, 0), (4, 1)):
            extra = ["--smoke", "--threads", str(threads)]
            code, lines, result = run_child(bench_args(binary, workload, DEFAULT_SEED, 0,
                                                       trace, extra))
            tag = f"{workload} threads={threads} trace={trace}"
            if code != 0 or result is None or not result.get("correct"):
                failures.append(f"{tag}: exit {code}, correct {result and result.get('correct')}")
                continue
            digests[threads, trace] = [l for l in lines if l.startswith("verdict_digest")]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            # Names equal to BENCHMARK.json's, which spec_problems vetted.
            if got != want[trace]:
                failures.append(f"{tag}: metrics {sorted(got.items())} != "
                                f"BENCHMARK.json {sorted(want[trace].items())}")
            print(f"ok   {tag}", flush=True)
        if len(set(tuple(d) for d in digests.values())) > 1:
            failures.append(f"{workload}: digests differ across thread counts {digests}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def load_results(paths):
    """{workload: {metric: [values in file order]}} from result files."""
    out = {}
    for pattern in paths:
        for path in sorted(glob.glob(pattern)) or [pattern]:
            with open(path) as f:
                doc = json.load(f)
            runs = []
            if "workloads" in doc:
                for workload, by_trace in doc["workloads"].items():
                    for result in by_trace.values():
                        if isinstance(result, dict):
                            runs.append((workload, result))
            else:
                runs.append((doc["workload"], doc))
            for workload, result in runs:
                for name, metric in result["metrics"].items():
                    out.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def classify(base, head, better, bound):
    """choosing-metrics section 8 applied to one workload x metric."""
    b1, b2, b3 = quartiles(base)
    _, h2, _ = quartiles(head)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    share = wins / len(pairs) if pairs else 0.0
    spread = (b3 - b1) / abs(b2) if b2 else float("inf")
    worse = -sign * (h2 - b2) / abs(b2) if b2 else 0.0
    separated = abs(h2 - b2) > (b3 - b1)
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if share >= 0.9 and separated and (bound is None or spread <= bound or all_better):
        label = "improved"
    elif bound is not None and spread > bound and not all_better:
        label = "unresolved"
    elif bound is not None and worse > bound:
        label = "regressed"
    elif bound is None and share <= 0.1 and separated and worse > 0:
        label = "regressed"
    else:
        label = "unchanged"
    return (b1, b2, b3), h2, share, len(pairs), label


def run_compare(files):
    if "--" not in files:
        log("--compare needs BASE files, then --, then HEAD files")
        return 2
    split = files.index("--")
    base = load_results(files[:split])
    head = load_results(files[split + 1:])
    spec = load_benchmark()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':<13} {'metric':<34} {'base q1/med/q3':>32} {'head med':>12} "
          f"{'won':>7}  label")
    for workload in sorted(set(base) & set(head)):
        for name in metrics:
            if name not in base[workload] or name not in head[workload]:
                continue
            m = metrics[name]
            (b1, b2, b3), h2, share, pairs, label = classify(
                base[workload][name], head[workload][name], m["better"], m.get("bound"))
            print(f"{workload:<13} {name:<34} {b1:>10.4g}/{b2:>10.4g}/{b3:>10.4g} "
                  f"{h2:>12.4g} {share:>6.0%}/{pairs}  {label}")
    return 0


def main():
    # argparse would swallow the "--" that separates the two sides.
    if sys.argv[1:2] == ["--compare"]:
        return run_compare(sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", help="all-workload mode: where to write BENCH_rotsv.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="smoke mode: use this rotsv_bench instead of building")
    args = parser.parse_args()

    try:
        if args.smoke:
            return run_smoke(args)
        if args.workload is None:
            return run_all(args)
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: {e}")
        return 1
    # A child process, not exec: peak RSS must not inherit the compiler's or
    # this interpreter's (the kernel keeps both across exec).
    sys.stdout.flush()
    return subprocess.run(bench_args(binary, args.workload, args.seed, args.seconds,
                                     args.trace)).returncode


if __name__ == "__main__":
    sys.exit(main())
