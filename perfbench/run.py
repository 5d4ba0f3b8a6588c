#!/usr/bin/env python3
"""Repository benchmark for the aimsc service.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
aimsc library from the repository's src/ tree) and runs one workload:

    python3 perfbench/run.py --workload small_clean --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer ledger with `--trace 1`.  The full result,
stamped with a host block, is written to .bench_out/ (and, for traced runs,
a Chrome trace-event file next to it).

Other modes:
    python3 perfbench/run.py --selftest           build and run the self-tests
    python3 perfbench/run.py --compare A.json B.json
        compare two saved results; refused when their host blocks differ

Environment: CARGO_TARGET_DIR names the build directory (default
.bench_build, relative to the repository root).
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
RUN_TIMEOUT_S = 170
# Host fields two results must share before their numbers may be compared;
# the commit and source digest say which code ran and are expected to differ.
HOST_KEYS = ("nproc", "simd", "compiler", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the benchmark package; returns the build dir."""
    if not (ROOT / "src" / "service" / "accelerator_service.hpp").is_file():
        raise RuntimeError(f"aimsc sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmds = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_workload(args):
    exe = build() / "aimsc_perfbench"
    out_dir = ROOT / ".bench_out"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    # Own process group, so a timeout also stops the forked shard workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        log(f"benchmark printed no result (exit {proc.returncode})")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    result["host"]["commit"] = git_commit()
    result["host"]["source_digest"] = source_digest()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    log(f"host {json.dumps(result['host'])}")
    log(f"wrote {path}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    if proc.returncode == 0 and not result["correct"]:
        return 1
    return proc.returncode


def compare(a_path, b_path):
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    ha = {k: a["host"].get(k) for k in HOST_KEYS}
    hb = {k: b["host"].get(k) for k in HOST_KEYS}
    if ha != hb:
        log(f"refusing to compare: host blocks differ\n  {ha}\n  {hb}")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("refusing to compare: different workload or trace mode")
        return 3
    print(f"{'metric':32} {'A':>16} {'B':>16} {'B/A':>8}")
    for name, ma in a["metrics"].items():
        vb = b["metrics"].get(name, {}).get("value")
        va = ma["value"]
        ratio = f"{vb / va:8.3f}" if vb is not None and va else "       -"
        print(f"{name:32} {va:16.6g} {vb if vb is not None else float('nan'):16.6g}"
              f" {ratio} {ma['unit']}")
    return 0


def selftest():
    out = build()
    return subprocess.run(["ctest", "--output-on-failure"], cwd=out,
                          check=False).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.selftest:
            return selftest()
        if not args.workload:
            p.error("--workload is required")
        return run_workload(args)
    except (RuntimeError, OSError, ValueError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
