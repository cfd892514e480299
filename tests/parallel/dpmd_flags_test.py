#!/usr/bin/env python3
"""`dpmd run` flag handling (run via ctest).

A multi-rank run builds every rank's force field from --path, and refuses
the serial-only flags with a nonzero exit and a message naming the flag
instead of silently ignoring them. Every command refuses an option it does
not read the same way:

  * `--ranks 2 --path mixed` runs the mixed path: the header echoes it and
    the fused path's `fused.slots_processed` counter never appears in the
    metrics (a `--path fused` control run shows that it would);
  * `--ranks 2 --thermostat langevin` exits nonzero naming --thermostat;
  * `--ranks 2 --rebalance` (a retired flag) exits nonzero naming it;
  * a serial run with a misspelt flag exits nonzero naming it.
"""

import argparse
import os
import subprocess
import sys
import tempfile


def run(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    return proc


def metrics_text(tmp, name):
    with open(os.path.join(tmp, name)) as f:
        return f.read()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dpmd", required=True)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        init = run([args.dpmd, "init", "--system", "water", "--demo", "--out", "m.dpm"], tmp)
        assert init.returncode == 0, "dpmd init failed"
        base = [args.dpmd, "run", "--model", "m.dpm", "--system", "water", "--steps", "2",
                "--ranks", "2"]

        for path in ("fused", "mixed"):
            proc = run(base + ["--path", path, "--metrics", f"{path}.jsonl"], tmp)
            assert proc.returncode == 0, f"--ranks 2 --path {path} failed"
            assert f"| path={path} |" in proc.stdout, f"header does not echo path={path}"
            fused_ran = "fused.slots_processed" in metrics_text(tmp, f"{path}.jsonl")
            assert fused_ran == (path == "fused"), \
                f"--path {path}: fused path {'did not run' if path == 'fused' else 'ran'}"

        proc = run(base + ["--thermostat", "langevin"], tmp)
        assert proc.returncode != 0, "--thermostat was accepted on a multi-rank run"
        assert "--thermostat" in proc.stdout, "the refusal does not name --thermostat"

        proc = run(base + ["--rebalance"], tmp)
        assert proc.returncode != 0, "--rebalance was accepted on a multi-rank run"
        assert "--rebalance" in proc.stdout, "the refusal does not name --rebalance"

        serial = [args.dpmd, "run", "--model", "m.dpm", "--system", "water", "--steps", "1"]
        proc = run(serial + ["--temprature", "300"], tmp)
        assert proc.returncode != 0, "a misspelt flag was accepted on a serial run"
        assert "--temprature" in proc.stdout, "the refusal does not name --temprature"
    print("dpmd flags: ok")


if __name__ == "__main__":
    main()
