"""Self-check: a corrupted expected output must count as a failed op.

    python3 perfbench/check_corrupt.py

Copies ``perfbench/expected`` to a scratch directory, corrupts one
expected grid-cell digest, one expected sweep-point digest and the
expected ``rank`` output, then runs ``detailed-grid``, ``sweep-batch``
and ``paper-cli`` briefly against the copy. Each run must report
``correct: false`` with failed ops: exactly the corrupted cell once per
pass, every sweep, and every ``rank`` op. Exits 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, ROOT, SCRATCH  # noqa: E402


def _corrupt(directory: Path) -> None:
    for name in ("grid.json", "sweep.json"):
        path = directory / name
        doc = json.loads(path.read_text())
        entries = doc["cells"] if name == "grid.json" else doc["points"]
        first = sorted(entries)[0]
        entries[first] = "0" * 64
        path.write_text(json.dumps(doc))
    rank = directory / "rank.txt"
    rank.write_bytes(rank.read_bytes().replace(b"design point", b"design-point", 1))


def main() -> int:
    corrupt = SCRATCH / "expected-corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    SCRATCH.mkdir(exist_ok=True)
    shutil.copytree(BENCH_DIR / "expected", corrupt)
    _corrupt(corrupt)
    ok = True
    try:
        for workload, per in (("detailed-grid", 30), ("sweep-batch", 1), ("paper-cli", 6)):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", "0", "--expected", str(corrupt)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300,
                check=False,
            )
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            # One corrupted cell per 30-cell pass; every sweep; one rank op per rotation.
            expected_failed = result["attempted"] // per
            good = (
                proc.returncode == 0
                and result["correct"] is False
                and result["failed"] == expected_failed
                and result["metrics"]["success_ratio"]["value"] < 1.0
            )
            ok &= good
            print(
                f"{workload:14s} attempted {result['attempted']:4d} failed {result['failed']:4d} "
                f"(expected {expected_failed}) -> {'ok' if good else 'WRONG'}"
            )
    finally:
        shutil.rmtree(corrupt, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
