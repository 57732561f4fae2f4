#!/usr/bin/env python3
"""Smoke tests for bench_e2e, registered with ctest by bench/e2e/CMakeLists.txt.

    smoke_test.py --bench <bench_e2e> --benchmark <BENCHMARK.json> --workload <name>
    smoke_test.py --bench <bench_e2e> --benchmark <BENCHMARK.json> --cli --compare <tool>

--workload runs the workload at tiny sizes, untraced and traced, and checks
that its oracle passes and that the output names every metric BENCHMARK.json
lists (wall metrics only from an optimized build, which is the only kind that
reports them). --cli checks that malformed arguments exit 2 with the usage
text, and that bench_e2e_compare reads run documents and gives verdicts.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output; stderr:\n" + proc.stderr)
    return json.loads(lines[-1])


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def smoke_workload(bench, spec, workload, tmp):
    doc_path = os.path.join(tmp, workload + ".json")
    proc = run([bench, "--workload", workload, "--smoke", "--seconds", "0.3",
                "--json", doc_path])
    check(proc.returncode == 0, "untraced run failed:\n" + proc.stdout + proc.stderr)
    line = last_json(proc)
    check(sorted(line) == ["attempted", "correct", "failed", "metrics"], "result keys")
    check(line["correct"] and line["failed"] == 0 and line["attempted"] > 0,
          "oracle did not pass: " + json.dumps(line))
    with open(doc_path) as f:
        doc = json.load(f)
    if doc["optimized_build"]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            check(line["metrics"].get(name, {}).get("unit") == metric["unit"],
                  "missing end-to-end metric " + name)
            check(name in doc["end_to_end"], "run document lacks " + name)

    out = os.path.join(tmp, "trace")
    proc = run([bench, "--workload", workload, "--smoke", "--seconds", "0.3",
                "--trace", "1", "--out", out])
    check(proc.returncode == 0, "traced run failed:\n" + proc.stdout + proc.stderr)
    line = last_json(proc)
    check(line["correct"] and line["failed"] == 0, "traced oracle did not pass")
    for metric in spec["per_layer"]:
        check(line["metrics"].get(metric["name"], {}).get("unit") == metric["unit"],
              "missing per-layer metric " + metric["name"])
    for suffix in (".trace.json", ".layers.json"):
        with open(os.path.join(out, workload + suffix)) as f:
            json.load(f)


def smoke_cli(bench, compare, benchmark_path, tmp):
    bad = [
        ["--workload", "paper_estimate", "--seconds", "abc"],
        ["--workload", "paper_estimate", "--seconds", "nan"],
        ["--workload", "paper_estimate", "--seconds", "-1"],
        ["--workload", "paper_estimate", "--seconds", "inf"],
        ["--workload", "paper_estimate", "--seconds", "1abc"],
        ["--workload", "paper_estimate", "--seed", "-1"],
        ["--workload", "paper_estimate", "--trace", "2"],
        ["--workload", "paper_estimate", "--json"],
        ["--workload", "no_such_workload"],
        ["--seconds", "1"],
        ["--bogus"],
    ]
    for args in bad:
        proc = run([bench] + args)
        check(proc.returncode == 2 and "usage:" in proc.stderr,
              "expected exit 2 with usage for %s, got %d" % (args, proc.returncode))
    check(run([bench, "--help"]).returncode == 0, "--help should exit 0")

    base, fresh = os.path.join(tmp, "base"), os.path.join(tmp, "new")
    for d in (base, fresh):
        for seed in ("1", "2"):
            proc = run([bench, "--workload", "paper_estimate", "--smoke", "--seconds", "0.1",
                        "--seed", seed, "--json", os.path.join(d, "run%s.json" % seed)])
            check(proc.returncode == 0, "compare input run failed")
    proc = run([compare, base, fresh, "--benchmark", benchmark_path])
    with open(os.path.join(base, "run1.json")) as f:
        optimized = json.load(f)["optimized_build"]
    # Only an optimized build reports the metrics there are to compare.
    check(proc.returncode in (0, 1) and ("paper_estimate" in proc.stdout or not optimized),
          "compare failed:\n" + proc.stdout + proc.stderr)
    check(run([compare, base]).returncode == 2, "compare with one directory should exit 2")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--cli", action="store_true")
    parser.add_argument("--compare")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        if args.cli:
            smoke_cli(args.bench, args.compare, args.benchmark, tmp)
        else:
            smoke_workload(args.bench, spec, args.workload, tmp)
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
