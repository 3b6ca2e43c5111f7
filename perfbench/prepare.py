"""Set-up of one workload, run as its own process so that its time covers
process start, imports and input generation (for ``score`` also training and
saving the checkpoint):

    python3 perfbench/prepare.py --workload score --seed 3 --dest DIR

Exits 0 when every CLI call it makes exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (after the path set-up above)
from sngp.cli import main as sngp_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", type=Path, required=True)
    args = parser.parse_args()
    args.dest.mkdir(parents=True, exist_ok=True)
    (args.dest / "run.cfg").write_text(workloads.config_text(args.workload, args.seed))
    for argv in workloads.setup_calls(args.workload, args.seed, args.dest):
        with contextlib.redirect_stdout(io.StringIO()):
            code = sngp_main(argv)
        if code != 0:
            print(f"prepare: sngp {argv[0]} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
