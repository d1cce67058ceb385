#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources, then runs it.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
    python3 bench_e2e/run.py --smoke

Run from the repository root. The build tree is $CARGO_TARGET_DIR/bench_e2e
(default .bench_build/bench_e2e), configured once and rebuilt incrementally;
build output goes to stderr so the binary's last stdout line stays its JSON
result. --smoke runs every workload at a tiny size and checks that each
result line parses and carries exactly the metrics BENCHMARK.json declares.
A measured run first runs the same smoke test, with its output on stderr,
whenever the binary is newer than the last smoke test that passed, so the
oracle and the metric set are checked on every build.
Exit status: the binary's; 1 when the smoke test fails; 2 when the sources
are missing or the build fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "bench_e2e"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "bench_e2e"


def run(binary, args, capture=False):
    try:
        done = subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    return done


def smoke(binary, sink):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    done = run(binary, ["--smoke"], capture=True)
    sink.write(done.stdout)
    problems, checked, last = [], 0, None
    for line in done.stdout.splitlines():
        if line.startswith("{"):
            last = json.loads(line)
        elif line.startswith("SMOKE ") and last is not None:
            trace = int(line.rsplit("trace=", 1)[1])
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{line}: metrics {sorted(got)} != declared {sorted(want[trace])}")
            for name, m in last["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{line}: {name} is not a finite number")
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{line}: result keys {sorted(last)}")
            checked += 1
            last = None
    if checked != 2 * len(declared["workloads"]):
        problems.append(f"expected {2 * len(declared['workloads'])} smoke results, got {checked}")
    for p in problems:
        print(f"run.py smoke: {p}", file=sys.stderr)
    return 0 if done.returncode == 0 and not problems else 1


def main():
    binary = build()
    if sys.argv[1:] == ["--smoke"]:
        return smoke(binary, sys.stdout)
    stamp = binary.parent / "smoke.ok"
    if not stamp.is_file() or stamp.stat().st_mtime < binary.stat().st_mtime:
        if smoke(binary, sys.stderr) != 0:
            fail("smoke test failed", code=1)
        stamp.touch()
    return run(binary, sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
