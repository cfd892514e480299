#!/usr/bin/env python3
"""`dpmd run` flag handling (run via ctest).

A multi-rank run builds every rank's force field from --path and takes
every run option a one-rank run takes. Every command refuses an option it
does not read with a nonzero exit and a message naming the flag, instead of
silently ignoring it:

  * `--ranks 2 --path mixed` runs the mixed path: the header echoes it and
    the fused path's `fused.slots_processed` counter never appears in the
    metrics (a `--path fused` control run shows that it would);
  * `--ranks 2 --thermostat langevin` is accepted and thermostatted: the
    header echoes it, and from the same step-0 state its thermo rows part
    from the NVE run's;
  * a `--ranks 2 --save-checkpoint` run restarts on 1 rank and on 2 ranks
    from the state it saved;
  * a `--ranks 2` run whose `--save-checkpoint` or `--force-dump` cannot be
    written exits nonzero instead of hanging;
  * `--ranks 2 --rebalance` (a retired flag) exits nonzero naming it;
  * a serial run with a misspelt flag exits nonzero naming it;
  * `dpmd train` (a retired command) exits nonzero with the usage text.
"""

import argparse
import os
import subprocess
import sys
import tempfile


def run(cmd, cwd, timeout=600):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    sys.stdout.write(proc.stdout)
    return proc


def thermo_rows(stdout):
    """{step: (E_tot, T)} from the thermo table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0].isdigit():
            rows[int(parts[0])] = (float(parts[1]), parts[2])
    return rows


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

        rows = {}
        for coupling in ("none", "langevin"):
            proc = run(base + ["--thermostat", coupling, "--thermo-every", "1"], tmp)
            assert proc.returncode == 0, f"--ranks 2 --thermostat {coupling} failed"
            assert f"thermostat={coupling}" in proc.stdout, f"header does not echo {coupling}"
            rows[coupling] = thermo_rows(proc.stdout)
        assert rows["none"][0] == rows["langevin"][0], "the step-0 states differ"
        assert rows["none"][2] != rows["langevin"][2], "--thermostat langevin did not act"

        proc = run(base + ["--save-checkpoint", "c.bin"], tmp)
        assert proc.returncode == 0, "--ranks 2 --save-checkpoint failed"
        saved = thermo_rows(proc.stdout)[2]
        for ranks in ("1", "2"):
            proc = run(base[:-1] + [ranks, "--restart", "c.bin", "--steps", "1"], tmp)
            assert proc.returncode == 0, f"restart on {ranks} rank(s) failed"
            restarted = thermo_rows(proc.stdout)[0]
            assert abs(restarted[0] - saved[0]) < 1e-5 and restarted[1] == saved[1], (
                f"restart on {ranks} rank(s) does not continue the saved state: "
                f"{restarted} vs {saved}")

        # Rank 0 writes the end-of-run files once every rank has left the
        # step loop, so a failed write is an error exit, not a deadlock.
        for flag in ("--save-checkpoint", "--force-dump"):
            proc = run(base + [flag, os.path.join("no-such-dir", "out.bin")], tmp,
                       timeout=120)
            assert proc.returncode != 0, f"{flag} into a missing directory exited 0"

        proc = run(base + ["--rebalance"], tmp)
        assert proc.returncode != 0, "--rebalance was accepted on a multi-rank run"
        assert "--rebalance" in proc.stdout, "the refusal does not name --rebalance"

        serial = [args.dpmd, "run", "--model", "m.dpm", "--system", "water", "--steps", "1"]
        proc = run(serial + ["--temprature", "300"], tmp)
        assert proc.returncode != 0, "a misspelt flag was accepted on a serial run"
        assert "--temprature" in proc.stdout, "the refusal does not name --temprature"

        proc = run([args.dpmd, "train", "--epochs", "1"], tmp)
        assert proc.returncode != 0, "dpmd train was accepted"
        assert "usage: dpmd" in proc.stdout, "dpmd train did not print the usage text"
        assert "train" not in proc.stdout, "the usage text still lists train"
    print("dpmd flags: ok")


if __name__ == "__main__":
    main()
