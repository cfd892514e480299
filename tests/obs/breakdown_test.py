#!/usr/bin/env python3
"""`dpmd run`'s end-of-run tables cover the timed steps only (run via ctest).

The driver makes its first force evaluation before the step clock starts,
so that evaluation belongs on the setup line and not in the tables:

  * on 1 and 2 in-process ranks, md.force's call count in the step-phase
    table equals --steps times the ranks (the table sums over rank
    threads), and the phase shares add up to at most 100 % of the budget;
  * the setup line reports the first evaluation's md.force;
  * the mixed and se_r paths print their measured force-kernel sections
    (env_mat, descriptor, prod_force) with no modeled column.
"""

import argparse
import re
import subprocess
import sys
import tempfile

STEPS = 3
PHASE_ROW = re.compile(r"^\s+(md\.\w+)\s+([\d.]+)\s+(\d+)\s+([\d.]+)%$")
TOTAL_ROW = re.compile(r"^\s+total\s+([\d.]+)\s+([\d.]+)%$")


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    assert proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}"
    return proc.stdout


def phase_table(stdout):
    """({phase: calls}, total share %) of the step-phase table."""
    lines = stdout.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("step-phase breakdown"))
    calls, total = {}, None
    for line in lines[start + 2:]:
        m = PHASE_ROW.match(line)
        if m:
            calls[m.group(1)] = int(m.group(3))
            continue
        m = TOTAL_ROW.match(line)
        assert m, f"unexpected line in the step-phase table: {line!r}"
        total = float(m.group(2))
        break
    return calls, total


def section_rows(stdout):
    """Rows of the force-kernel sections table: {stage: [fields]}."""
    lines = stdout.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("force-kernel sections"))
    rows = {}
    for line in lines[start + 3:]:
        if not line.startswith("  "):
            break
        fields = line.split()
        rows[fields[0]] = fields[1:]
    return rows, lines[start]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dpmd", required=True)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        run([args.dpmd, "init", "--system", "water", "--demo", "--out", "m.dpm"], tmp)
        run([args.dpmd, "init", "--system", "water", "--demo", "--descriptor", "se_r",
             "--out", "r.dpm"], tmp)
        base = [args.dpmd, "run", "--system", "water", "--steps", str(STEPS)]

        for ranks in (1, 2):
            out = run(base + ["--model", "m.dpm", "--ranks", str(ranks)], tmp)
            calls, total = phase_table(out)
            assert calls.get("md.force") == STEPS * ranks, \
                f"{ranks} rank(s): md.force calls {calls.get('md.force')}, " \
                f"want {STEPS * ranks}"
            assert total is not None and total <= 100.0, \
                f"{ranks} rank(s): phase shares sum to {total} %"
            assert re.search(r"^setup before step 1 .*md\.force [\d.]+ s", out, re.M), \
                f"{ranks} rank(s): no setup line with the first evaluation"

        for model, path in (("m.dpm", "mixed"), ("r.dpm", "se_r")):
            out = run(base + ["--model", model, "--path", path], tmp)
            assert f"| path={path} |" in out, f"header does not echo path={path}"
            rows, title = section_rows(out)
            assert "cost model" not in title, f"{path}: a modeled column was printed"
            for stage in ("env_mat", "descriptor", "prod_force"):
                assert stage in rows and len(rows[stage]) == 1, \
                    f"{path}: no measured-only {stage} row in {rows}"
                assert float(rows[stage][0]) > 0.0, f"{path}: {stage} measured nothing"
    print("ok")


if __name__ == "__main__":
    main()
