"""Benchmark of knotoid_casson: one seeded workload, checked, as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src``.
The inputs are generated from the seed into ``perfbench/.work`` and
removed afterwards.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics, and the spans of the first traced round are written to
``perfbench/traces``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Every run, the first one included, has to end within this many seconds.
RUN_LIMIT_S = 170


def run_worker(command: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """The worker in a session of its own, so that a timeout ends the set-up
    interpreters it launches together with it."""
    with subprocess.Popen(command, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(command, proc.returncode, out, err)


def summary(result: dict) -> dict:
    """The benchmark's result line from the worker's: correct only when no
    operation failed a check."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "knotoid_casson" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'knotoid_casson'} is missing", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs.generate(args.workload, args.seed, work)
        worker = [
            sys.executable, str(HERE / "worker.py"), "--work", str(work),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-file", str(HERE / "traces" / f"{args.workload}-seed{args.seed}.json"),
        ]
        proc = run_worker(worker, env, max(1.0, deadline - time.monotonic()))
    except subprocess.SubprocessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: the worker exited with status {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(proc.stdout.splitlines()[-1])
    for error in result["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
