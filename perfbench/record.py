"""Record the reference artifacts of the fixed-input workloads.

    python3 perfbench/record.py

Runs each operation of `paper-spectrum` and `oracle-verify` once and stores
every artifact body except run_meta.json in perfbench/reference/, which the
benchmark's checker compares later runs against.  Re-record only at a commit
whose outputs are trusted, and say so in the change that does it.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import run


def main() -> int:
    cli = run._import_cli()
    tol = json.loads((run.BENCH / "metrics.json").read_text())["reference_tolerance"]
    work = run.ROOT / ".perfbench_out" / "record"
    try:
        for name in ("paper-spectrum", "oracle-verify"):
            workload = run.WORKLOADS[name](0, work, tol)
            recorded = {}
            for op in workload.ops:
                result = run.run_op(cli, op, work / op.label.replace("/", "-"))
                if result.code != 0:
                    print(f"{name} {op.label}: exit code {result.code}", file=sys.stderr)
                    return 1
                recorded[op.label] = result.artifacts
            path = run.reference_path(name)
            path.parent.mkdir(exist_ok=True)
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(json.dumps(recorded, indent=0, sort_keys=True).encode())
            print(f"wrote {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
