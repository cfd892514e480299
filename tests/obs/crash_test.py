#!/usr/bin/env python3
"""Crash-path acceptance test for the flight recorder (run via ctest).

Drives the built `dpmd` binary with deterministic fault injection and checks
the black box actually survives the death it was built for:

  --mode segv   distributed run killed by SIGSEGV on rank 0 at a sample
                step: every rank must leave a parseable
                flightrec.rank<k>.json whose last recorded step matches the
                fsynced metrics log (md.steps), and dpblackbox --check must
                accept the set (rank skew <= 1 step).
  --mode fatal  one-rank run failing a DP_CHECK at a sample step: the
                fatal hook routes through notify_fatal, so the dump and the
                synced metrics must exist although the injection then
                aborts the process (as it does on every rank count).

Sanitizer interplay: ASan/TSan install their own SIGSEGV handlers unless
told otherwise; the child env gets handle_segv=0 so the product's handler
(the thing under test) runs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def run(cmd, cwd, env):
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    return proc


def child_env():
    env = dict(os.environ)
    for var in ("ASAN_OPTIONS", "TSAN_OPTIONS", "UBSAN_OPTIONS"):
        extra = "handle_segv=0:allow_user_segv_handler=1:handle_abort=0"
        env[var] = env[var] + ":" + extra if env.get(var) else extra
    return env


def read_metrics_steps(path):
    """Last `md.steps` counter value in the fsynced JSONL metrics file."""
    steps = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)  # every line must parse — crash or not
            if doc.get("type") == "counter" and doc.get("name") == "md.steps":
                steps = int(doc["value"])
    if steps is None:
        raise AssertionError(f"{path}: no md.steps counter found")
    return steps


def load_flightrec(path):
    with open(path) as f:
        doc = json.load(f)
    for key in ("rank", "capacity", "count", "last_step", "records"):
        assert key in doc, f"{path}: missing field '{key}'"
    assert doc["records"], f"{path}: no records"
    assert doc["records"][-1]["step"] == doc["last_step"], (
        f"{path}: last record step {doc['records'][-1]['step']} != "
        f"last_step {doc['last_step']}")
    return doc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dpmd", required=True, help="path to the built dpmd binary")
    ap.add_argument("--blackbox", required=True, help="path to tools/dpblackbox")
    ap.add_argument("--mode", choices=["segv", "fatal"], required=True)
    args = ap.parse_args()

    env = child_env()
    inject_step = 8
    with tempfile.TemporaryDirectory(prefix="dp_crash_test_") as tmp:
        proc = run([args.dpmd, "init", "--system", "water", "--demo",
                    "--out", "model.dpm"], tmp, env)
        assert proc.returncode == 0, "dpmd init failed"

        ranks = 2 if args.mode == "segv" else 1
        cmd = [args.dpmd, "run", "--model", "model.dpm", "--system", "water",
               "--steps", "20", "--thermo-every", "4",
               "--health", "--flight-recorder", ".",
               "--metrics", "crash.metrics.jsonl",
               f"--inject-{args.mode}", str(inject_step)]
        if ranks > 1:
            cmd += ["--ranks", str(ranks)]
        proc = run(cmd, tmp, env)
        assert proc.returncode != 0, (
            f"injected {args.mode} run exited cleanly (rc 0)")

        dumps = sorted(p for p in os.listdir(tmp) if p.startswith("flightrec.rank"))
        assert len(dumps) == ranks, (
            f"expected {ranks} flight dump(s), found {dumps}")

        metrics_steps = read_metrics_steps(os.path.join(tmp, "crash.metrics.jsonl"))
        last_steps = []
        for name in dumps:
            doc = load_flightrec(os.path.join(tmp, name))
            last_steps.append(doc["last_step"])
            print(f"{name}: rank {doc['rank']} last_step {doc['last_step']} "
                  f"count {doc['count']}")
        print(f"metrics md.steps = {metrics_steps}")

        # The injection fires at the first sample step >= inject_step, right
        # after that step's flight record and metrics rewrite landed — the
        # dump and the log must agree on where the run died.
        for ls in last_steps:
            assert ls >= inject_step, f"last_step {ls} precedes injection"
            assert ls == metrics_steps, (
                f"flight recorder last_step {ls} != metrics md.steps "
                f"{metrics_steps}")

        proc = run([sys.executable, args.blackbox, "--check", "--last", "4"]
                   + [os.path.join(tmp, d) for d in dumps], tmp, env)
        assert proc.returncode == 0, "dpblackbox --check rejected the dumps"

    print(f"crash_test mode={args.mode}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
