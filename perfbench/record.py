"""Record the expected exit code and stdout digest of every benchmark command.

    python3 perfbench/record.py

Run from the root of a checkout. For every workload and each of SEEDS it
runs the commands of the first JOBS jobs through robustmine.cli.main (a
command whose inputs an earlier job already had runs once), checks each
output with check.py, and rewrites perfbench/expected.json. It refuses to
record an output that check.py finds wrong; a known-defect verify FAIL is
recorded as what the program prints. Re-record only when a change means to alter output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 11)
JOBS = 5


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import robustmine.cli

    expected = {}
    workdir = os.path.join(HERE, "out", f"record-{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            table = expected.setdefault(name, {})
            for seed in SEEDS:
                wl = workloads.Workload(name, seed, os.path.join(workdir, f"{name}-{seed}"))
                for job in range(JOBS):
                    files = wl.files(job)
                    for argv in wl.commands(job):
                        key = check.content_key(argv)
                        if key in table:
                            continue
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(io.StringIO()):
                            code = robustmine.cli.main(list(argv))
                        db = check.Db(files[argv[argv.index("--input") + 1]])
                        verdict = check.check_output(argv, code, out.getvalue(), db)
                        if verdict not in (check.PASS, check.KNOWN_DEFECT):
                            print(f"refusing to record {' '.join(argv)}: {verdict}",
                                  file=sys.stderr)
                            return 1
                        table[key] = [code, check.digest(out.getvalue())]
                print(f"{name} seed {seed}: {len(table)} commands recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = []
    for name, table in sorted(expected.items()):
        rows = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(check.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
