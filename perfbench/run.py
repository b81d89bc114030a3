#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
library, rtpd, rtprouter and the harness (Release) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only rebuild what changed.
The harness writes scratch files, server logs, spans and a result record
with provenance under .bench_out/.  Standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
when every answer was correct, 1 when a correctness gate failed and 2 when
the benchmark could not run (no sources, build failure, bad arguments).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(out):
    """Configure once, then build the benchmark's targets incrementally."""
    log = out / "build.log"
    with open(log, "w") as sink:
        if not (out / "CMakeCache.txt").exists():
            step = subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                                   "-DCMAKE_BUILD_TYPE=Release"],
                                  stdout=sink, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if step.returncode != 0:
                fail(f"cmake configure failed; see {log}")
        jobs = str(os.cpu_count() or 2)
        step = subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                               "perfbench", "rtpd", "rtprouter"],
                              stdout=sink, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
        if step.returncode != 0:
            fail(f"build failed; see {log}")


_harness = None


def _stop_harness(signum, _frame):
    """Take the harness and the servers it started down with this process."""
    if _harness is not None and _harness.poll() is None:
        os.killpg(_harness.pid, signal.SIGTERM)
        try:
            _harness.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(_harness.pid, signal.SIGKILL)
            _harness.wait()
    sys.exit(128 + signum)


def run_harness(args, out_dir, bins):
    global _harness
    cmd = [str(bins / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--bin", str(bins), "--source", source_id()]
    # Own process group, so a timeout takes the spawned servers down too.
    proc = _harness = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                       start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    return proc.returncode, stdout


def check_result(line, spec, trace):
    """The last line must be the result, reporting exactly the declared metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the harness's last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from correct/attempted/failed/metrics"
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        return f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, " \
               f"extra {sorted(set(got) - set(want))}, or units differ"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop_harness)
    signal.signal(signal.SIGINT, _stop_harness)
    if args.seed < 0:
        fail("--seed must be >= 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "rtpd.cpp").is_file():
        fail(f"no repository sources beside {HERE.name}/ (need src/ and tools/)")
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    build(out)

    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for stale in run_dir.iterdir():
        if stale.is_file():
            stale.unlink()

    code, stdout = run_harness(args, run_dir, out)
    lines = stdout.rstrip("\n").split("\n")
    if code not in (0, 1):
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        fail(f"harness exited with code {code}")
    problem = check_result(lines[-1], spec, args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
