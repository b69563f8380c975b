#!/usr/bin/env python3
"""Record the sha256 of each workload's CSV, from serial runs, into
reference.json.  The benchmark fails any call whose CSV differs.

    python3 perfbench/record_reference.py

Record on a commit whose CSVs are known good; every later commit must
reproduce these bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

from run import REFERENCE, WORK_DIR, import_program
from workloads import CONFIG_FILE, WORKLOADS, write_workload_files

# Seeds 0..RECORDED_SEEDS-1 get a digest; at other seeds the benchmark
# checks each call against the run's first serial call.
RECORDED_SEEDS = 32

# The first two data rows of filter.csv as printed in the README.
README_ROWS = (
    "0,13679457532755275413,filter,80,8,34,4.25,\n"
    "1,2949826092126892291,filter,80,6,34,5.666666666666667,\n"
)


def csv_digest(geomis, workload: str, seed: int) -> str:
    directory = WORK_DIR / f"record-{workload}-{seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    try:
        write_workload_files(workload, seed, "full", directory)
        out = directory / "out.csv"
        os.environ["GEOMIS_THREADS"] = "1"
        with contextlib.redirect_stdout(io.StringIO()):
            code = geomis.cli.cli_dispatch(
                ["experiment", "--config", str(directory / CONFIG_FILE), "--out", str(out)]
            )
        if code != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {code}")
        text = out.read_text()
        if workload == "oracle_readme" and seed == 0 and README_ROWS not in text:
            raise SystemExit("oracle_readme at seed 0 does not reproduce the README's CSV")
        return hashlib.sha256(text.encode()).hexdigest()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main() -> None:
    geomis = import_program()
    reference = {
        name: {str(s): csv_digest(geomis, name, s) for s in range(RECORDED_SEEDS)}
        for name in WORKLOADS
    }
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)


if __name__ == "__main__":
    main()
