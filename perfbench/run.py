"""Benchmark entry point.

    python3 perfbench/run.py --workload pages --seed 1 --seconds 8 --trace 0

Runs ``perfbench/measure.py`` in a child process under a hard deadline, then
tears Ray down with ``ray stop --force`` whatever happened, so a hung run
never leaves a cluster behind to overlap the next one.  The child's last
stdout line (the result JSON) is relayed as this program's last line; the
exit code is non-zero on any failure, including a missed deadline.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pages", "skew_salted", "queries_join")
RUN_DEADLINE_S = 165


def ray_stop():
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
        check=False,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("deepseek_ocr_ray", "__ray_entry__.py", "tests/reference_oracle.py")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing}", file=sys.stderr)
        return 2

    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_DEADLINE_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_DEADLINE_S} s", file=sys.stderr)
        return 3
    finally:
        ray_stop()
    lines = proc.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        print(lines[-1])
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
