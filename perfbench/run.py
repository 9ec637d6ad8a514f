#!/usr/bin/env python3
"""Repository benchmark: build perfbench from the checkout's sources, run one
workload, check its outputs, and print the result as one JSON line.

    python3 perfbench/run.py --workload serve_churn --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout, run-time files (journals, sockets) to
.bench_run, and the full result documents, span files and output digests to
.bench_results. The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). See perfbench/README.md for what each workload and metric is.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_churn", "tune_streamed")
# The first run in a checkout builds; build and run together stay under
# 900 s, and a run alone under 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_group(command, timeout, **kwargs):
    """Run `command` in a process group of its own. On timeout kill the whole
    group (a build's compilers too), wait until it is gone, and re-raise."""
    proc = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        raise
    return subprocess.CompletedProcess(command, proc.returncode, out, err)


def build():
    """Configure (cheap once cached) and build incrementally; returns the
    binary path."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = build_root / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release", *generator],
             ["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = run_group(step, max(1.0, deadline - time.monotonic()),
                             cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unavailable (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(results, key, digest):
    """Same code and seed must give the same outputs as every earlier run."""
    path = results / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != digest:
        return f"digest {digest} differs from {known[key]} of an earlier run"
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    binary = build()

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = results / f"{tag}.json"
    work_dir = ROOT / ".bench_run" / f"{tag}-{os.getpid()}"
    digest_of_code = source_digest()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--out", str(out), "--git-sha", git_sha(),
               "--source-digest", digest_of_code]
    if args.trace:
        command += ["--spans", str(results / f"{args.workload}.spans.jsonl")]
    if out.exists():
        out.unlink()
    sys.stdout.flush()
    try:
        done = run_group(command, RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0 or not out.exists():
        fail(f"perfbench exited with {done.returncode}", 3)

    doc = json.loads(out.read_text())
    if list(doc["metrics"]) != expected:
        fail(f"metrics {list(doc['metrics'])} do not match BENCHMARK.json "
             f"{expected}", 4)
    repeat = check_repeat(
        results, f"{args.workload}/{args.seed}/{digest_of_code}",
        doc["digest"])
    if repeat is not None:
        print(f"  check failed: {repeat}")
    correct = doc["correct"] and repeat is None
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in doc["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
