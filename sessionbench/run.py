"""The repository benchmark: one seeded AQL session workload, checked.

Usage (from the repository root)::

    python3 sessionbench/run.py --workload hot --seed 1 --seconds 20 \\
        --trace 0 [--out result.json]

Builds the workload for the seed (operands, one round of statements and
every statement's expected outcome, see ``workloads.py``), then runs it
in a fresh child process (``harness.py``) with ``PYTHONHASHSEED``
pinned and every ``REPRO_*`` variable removed, so the session runs its
defaults.  Prints the resolved configuration as a ``# config:`` line,
the end-to-end figures before normalizing to the reference machine
speed (see ``harness.py``) as a ``# raw`` line, and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace
1``).  ``--out`` also writes the whole result, with the
per-layer table of a traced run, for ``tracediff.py``.

Exits non-zero when a statement failed its reference check or a
shared-memory segment of the run was left behind (the result line then
reads ``"correct": false``), and without a result line when the child
fails, for example because ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, build  # noqa: E402

#: the child is killed after this many seconds
CHILD_TIMEOUT = 170
#: the working directory for operand files, inside the checkout
WORK_ROOT = os.path.join(ROOT, ".sessionbench-work")
SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro_shm_"


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def leaked_segments(pid: int) -> list:
    """Shared-memory segments the child (pid) created and left behind."""
    if not os.path.isdir(SHM_DIR):
        return []
    prefix = f"{SHM_PREFIX}{pid}_"
    return sorted(name for name in os.listdir(SHM_DIR)
                  if name.startswith(prefix))


def run_child(spec_path: str, workdir: str, seconds: int, trace: int):
    """Run the harness; ``(returncode, stdout, pid)``."""
    command = [sys.executable, os.path.join(HERE, "harness.py"),
               "--spec", spec_path, "--seconds", str(seconds),
               "--trace", str(trace)]
    # a session of its own, so killing its group also stops the pool's
    # workers; that happens on a timeout and when this process is ended
    child = subprocess.Popen(command, cwd=workdir, env=child_env(),
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"harness timed out after {CHILD_TIMEOUT} s", file=sys.stderr)
        return 1, b"", child.pid
    finally:
        try:     # also reaps workers a crashed harness left behind
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
    return child.returncode, out, child.pid


def _terminate(signum, frame) -> None:
    raise SystemExit(f"ended by signal {signum}")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(
        description="Run one seeded, reference-checked AQL workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)

    spec = build(args.workload, args.seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        spec_path = os.path.join(workdir, "spec.pkl")
        with open(spec_path, "wb") as handle:
            pickle.dump(spec, handle)
        code, out, pid = run_child(spec_path, workdir, args.seconds,
                                   args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    if code != 0:
        print(f"harness exited with code {code}", file=sys.stderr)
        return 1
    result = json.loads(out.decode().strip().splitlines()[-1])
    leaks = leaked_segments(pid)
    if leaks:
        print(f"shared-memory segments left behind: {leaks}",
              file=sys.stderr)
        result["correct"] = False
    if result["failed"]:
        print(f"{result['failed']} of {result['attempted']} statements "
              f"failed their reference check", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    print("# config: " + json.dumps(result["config"], sort_keys=True))
    if "raw" in result:
        print("# raw (before normalizing to the reference speed): "
              + json.dumps(result["raw"], sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
