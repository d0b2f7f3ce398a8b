#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
engine libraries plus the perfbench program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build. The workload's inputs come from --seed alone.

Output: a summary of provenance, details and metrics, then, as the last
line, one JSON object with exactly the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json and
--trace 1 the per-layer ones; a traced run also writes its spans to
<build>/spans/. Exit status: 0 when every correctness check passed, 1 when
one failed (the result line is still printed), 2 when the benchmark could
not run (no result line).

--self-test runs every workload at a tiny size in both modes, checks the
metric names against BENCHMARK.json, checks that injected faults (an
invariant violation, a digest mismatch, a batched/singles mismatch) fail
the run with a non-zero exit, and that a directory holding only the
benchmark files exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/; run from a "
             "full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]

    def step(cmd):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        return r.returncode == 0

    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not step(configure):
            fail("cmake configure failed")
    if not step(compile_):
        # A cache left by another source tree cannot be reused: start over.
        shutil.rmtree(out, ignore_errors=True)
        if not (step(configure) and step(compile_)):
            fail("build failed")
    return os.path.join(out, "perfbench")


def run_workload(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenario-dir", os.path.join(ROOT, "scenarios")]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    env = {k: v for k, v in os.environ.items()
           if k not in ("REM_METRICS", "REM_CHECK_INVARIANTS")}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        fail("perfbench exited %d without a result" % r.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")


def check_names(spec, result, trace):
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append("missing metric " + name)
        elif name not in want:
            problems.append("metric %s is not in BENCHMARK.json" % name)
        elif want[name] != got[name]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name], want[name]))
    return problems


def main_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (BENCHMARK.json has %s)"
             % (args.workload, ", ".join(names)))
    binary = build()
    result = run_workload(binary, args)
    problems = check_names(spec, result, args.trace)
    if problems:
        fail("; ".join(problems))

    for key, value in result["info"].items():
        print("  %-34s %s" % (key, json.dumps(value)))
    for name, m in result["metrics"].items():
        print("  %-44s %.6g %s" % (name, m["value"], m["unit"]))
    for e in result["errors"]:
        print("  FAILED CHECK: " + e)
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


def self_test():
    spec = load_spec()
    me = [sys.executable, os.path.abspath(__file__)]
    failures = []

    def run(extra):
        r = subprocess.run(me + extra, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S + BUILD_TIMEOUT_S)
        lines = r.stdout.strip().splitlines()
        try:
            return r.returncode, json.loads(lines[-1]) if lines else None
        except ValueError:
            return r.returncode, None

    def check(label, ok):
        print("%s  %s" % ("PASS" if ok else "FAIL", label))
        if not ok:
            failures.append(label)

    base = ["--seed", "3", "--seconds", "1", "--tiny"]
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, res = run(["--workload", w["name"], "--trace", str(trace)] +
                          base)
            ok = (rc == 0 and res is not None and res["correct"] and
                  res["failed"] == 0 and res["attempted"] >= 1 and
                  not check_names(spec, res, trace))
            check("%s --trace %d runs end to end with the BENCHMARK.json "
                  "metric names" % (w["name"], trace), ok)

    injected = [
        ("rail_corridor", 0, "invariant",
         "an injected invariant violation fails the run"),
        ("rail_corridor", 0, "digest",
         "a digest mismatch between repetitions fails the run"),
        ("dense_storm", 1, "digest",
         "a traced/untraced digest mismatch fails the run"),
        ("crossband_batch", 0, "mismatch",
         "a batched output off the singles path fails the run"),
    ]
    for workload, trace, fault, label in injected:
        rc, res = run(["--workload", workload, "--trace", str(trace),
                       "--inject", fault] + base)
        ok = (rc != 0 and res is not None and not res["correct"] and
              res["failed"] >= 1)
        check("%s (%s, rc=%d)" % (label, workload, rc), ok)

    # A directory holding only BENCHMARK.json and the benchmark's own files
    # must exit non-zero without printing a result.
    bare = os.path.join(build_dir(), "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, os.path.join(bare, "perfbench",
                                                     "run.py"),
                        "--workload", spec["workloads"][0]["name"],
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=170,
                       env={k: v for k, v in os.environ.items()
                            if k != "CARGO_TARGET_DIR"})
    shutil.rmtree(bare, ignore_errors=True)
    check("a directory with only the benchmark files exits non-zero without "
          "a result (rc=%d)" % r.returncode,
          r.returncode != 0 and not r.stdout.strip())

    print("self-test: %d checks failed" % len(failures) if failures
          else "self-test: all checks passed")
    sys.exit(1 if failures else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes that still run every code path")
    p.add_argument("--inject", choices=("invariant", "digest", "mismatch"),
                   help="self-test fault to inject")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    main_run(args)


if __name__ == "__main__":
    main()
