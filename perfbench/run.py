"""hmog benchmark: one workload per process, end-to-end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload iris-unified --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` hold every end-to-end metric named in ``BENCHMARK.json``; with
``--trace 1`` they hold every per-layer metric instead. Earlier lines give
the environment and a human-readable account of the run. The program is
imported from ``src/`` of the checkout; without it the benchmark exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# The BLAS thread cap must be in place before numpy is first imported. One
# thread, below the CPU count: on a 2-CPU machine, two OpenBLAS threads made
# the apply calls about 1.5x slower and their timings twice as spread out
# (the matrices are small, and the second CPU is shared).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(ROOT),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "hmog" / "__init__.py").is_file():
        _fail(f"no program source at {ROOT / 'src' / 'hmog'}")
    if not (ROOT / "tests" / "data" / "iris.csv").is_file():
        _fail(f"no Iris data at {ROOT / 'tests' / 'data' / 'iris.csv'}")
    sys.path.insert(0, str(ROOT / "src"))

    import bench  # imports hmog, so only after the source path is in place
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = _environment()
    result = bench.run(ROOT, WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
