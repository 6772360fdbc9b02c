"""Write pins.json: the sha256 of every catalogue operation's output.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only on the commit whose behaviour the benchmark should hold later
commits to: it refuses unless the behaviour fingerprint (the sha256 of
`verify all --from 36 --to 2000 --format json --no-timestamp`) is the seed
commit's, and unless every operation exits 0. Operations run in this process
through kbound.cli.main with --out, which writes the same bytes as
``python -m kbound`` writes to standard output.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

FINGERPRINT_ARGV = ("verify", "all", "--from", "36", "--to", "2000", "--format", "json", "--no-timestamp")
FINGERPRINT = "739feb0f98c158b2edc4dfaed40f7c5576cdd2927f7c1139796ec3e12f4e6c97"


def main() -> int:
    from kbound import cli

    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for argv in (FINGERPRINT_ARGV, *workloads.catalogue()):
            code = cli.main([*argv, "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{workloads.op_key(argv)} exited {code}; nothing pinned")
            pins[workloads.op_key(argv)] = hashlib.sha256(out.read_bytes()).hexdigest()
    if pins.pop(workloads.op_key(FINGERPRINT_ARGV)) != FINGERPRINT:
        raise SystemExit("the behaviour fingerprint differs from the seed commit's; nothing pinned")
    (HERE / "pins.json").write_text(json.dumps({"sha256": pins}, indent=0) + "\n")
    print(f"pinned {len(pins)} operations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
