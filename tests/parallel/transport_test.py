#!/usr/bin/env python3
"""Multi-process transport acceptance tests for dpmd (run via ctest).

Spawns real OS processes — one per rank — connected by the shm or tcp
transport, and checks the three promises the transport layer makes:

  --mode parity    the physics is transport-invariant: forces and thermo
                   rows from a 2-process (and 4-process) shm/tcp world are
                   bitwise identical to the in-process threads world (the
                   dump is %a hex floats, compared as text), and the
                   neighbor rebuild counts match. The same holds for 2-rank
                   NVT (langevin, berendsen, nose-hoover) and NPT worlds,
                   whose threads runs also agree at OMP_NUM_THREADS 1/2/4.
  --mode fault     a SIGKILLed peer must not hang the world: the survivor
                   exits nonzero through a DP_CHECK fatal (dumping its
                   flight recorder), not a deadlock.
  --mode blackbox  a crash in a multi-process world leaves one flight dump
                   per process in the shared run dir, and dpblackbox merges
                   the directory and accepts the set (rank skew <= 1).
  --mode bootstrap the shm bootstrap survives its create/size race: ~200
                   back-to-back 4-rank shm worlds (--steps 0) all exit 0.

Sanitizer interplay: same as tests/obs/crash_test.py — the product's signal
handlers are the thing under test, so the children run with handle_segv=0.
"""

import argparse
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


def child_env():
    env = dict(os.environ)
    for var in ("ASAN_OPTIONS", "TSAN_OPTIONS", "UBSAN_OPTIONS"):
        extra = "handle_segv=0:allow_user_segv_handler=1:handle_abort=0"
        env[var] = env[var] + ":" + extra if env.get(var) else extra
    # The children are configured purely by CLI flags; a stray DP_* in the
    # ambient environment must not leak into half-configured worlds.
    for var in ("DP_TRANSPORT", "DP_RANK", "DP_WORLD", "DP_RENDEZVOUS", "DP_TIMEOUT"):
        env.pop(var, None)
    return env


def run(cmd, cwd, env, timeout=600):
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=timeout)
    sys.stdout.write(proc.stdout)
    return proc


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def rendezvous_for(transport, tag):
    if transport == "shm":
        return f"dp_tt_{tag}_{os.getpid()}"
    return f"127.0.0.1:{free_port()}"


def spawn_world(dpmd, transport, world, run_args, cwd, env, tag):
    """Starts one dpmd process per rank; every rank gets identical run flags
    (the SPMD contract) plus its own --rank."""
    rendezvous = rendezvous_for(transport, tag)
    procs = []
    for rank in range(world):
        cmd = [dpmd, "run"] + run_args + [
            "--transport", transport, "--rank", str(rank),
            "--world", str(world), "--rendezvous", rendezvous]
        procs.append(subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True))
    return procs


def wait_world(procs, timeout=600):
    outs = []
    for p in procs:
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            for q in procs:
                q.kill()
            raise
        outs.append(out)
    return outs


def rebuilds_line(text):
    for line in text.splitlines():
        if line.startswith("rebuilds "):
            return line
    raise AssertionError(f"no 'rebuilds' line in output:\n{text}")


def thermo_rows(text):
    """The thermo table rows, as printed."""
    return [line for line in text.splitlines()
            if len(line.split()) == 4 and line.split()[0].isdigit()]


def threads_run(dpmd, tmp, env, run_args, world, dump):
    """One in-process world; returns (forces, thermo rows, rebuilds line)."""
    proc = run([dpmd, "run"] + run_args + ["--ranks", str(world), "--force-dump", dump],
               tmp, env)
    assert proc.returncode == 0, f"threads run failed ({' '.join(run_args)})"
    with open(os.path.join(tmp, dump)) as f:
        forces = f.read()
    assert forces, f"{dump} is empty"
    return forces, thermo_rows(proc.stdout), rebuilds_line(proc.stdout)


def check_parity(dpmd, tmp, env, system, world, coupling=()):
    base = [
        "--model", f"{system}.dpm", "--system", system,
        "--steps", "8", "--thermo-every", "4", "--rebuild-every", "5", *coupling]
    label = f"{system} x{world} {' '.join(coupling) or 'nve'}"
    tag = "".join(c for c in label if c.isalnum())

    ref = threads_run(dpmd, tmp, env, base, world, f"forces_{tag}_threads.txt")
    if coupling:
        # Ranks x OpenMP threads: the OpenMP team size must not move a bit.
        for omp in ("1", "2", "4"):
            got = threads_run(dpmd, tmp, dict(env, OMP_NUM_THREADS=omp), base, world,
                              f"forces_{tag}_omp{omp}.txt")
            assert got == ref, f"OMP_NUM_THREADS={omp} differs from the default ({label})"

    for transport in ("shm", "tcp"):
        dump = f"forces_{tag}_{transport}.txt"
        # Every rank passes --force-dump (the gather is collective); only
        # rank 0 writes the file.
        procs = spawn_world(dpmd, transport, world,
                            base + ["--force-dump", dump], tmp, env, tag)
        outs = wait_world(procs)
        for rank, (p, out) in enumerate(zip(procs, outs)):
            assert p.returncode == 0, (
                f"{transport} rank {rank} failed ({label}):\n{out}")
        with open(os.path.join(tmp, dump)) as f:
            forces = f.read()
        assert forces == ref[0], f"{transport} forces differ from threads ({label})"
        assert thermo_rows(outs[0]) == ref[1], (
            f"{transport} thermo rows differ from threads ({label})")
        assert rebuilds_line(outs[0]) == ref[2], (
            f"{transport} rebuild counts differ ({label})")
        print(f"parity ok: {label} {transport} == threads "
              f"({len(ref[0].splitlines())} atoms, bitwise)")


def mode_parity(dpmd, tmp, env):
    for system in ("copper", "water"):
        proc = run([dpmd, "init", "--system", system, "--demo",
                    "--out", f"{system}.dpm"], tmp, env)
        assert proc.returncode == 0, f"dpmd init {system} failed"
    check_parity(dpmd, tmp, env, "copper", 2)
    check_parity(dpmd, tmp, env, "copper", 4)
    check_parity(dpmd, tmp, env, "water", 2)
    for coupling in (["--thermostat", "langevin"], ["--thermostat", "berendsen"],
                     ["--thermostat", "nose-hoover"], ["--pressure", "0"]):
        check_parity(dpmd, tmp, env, "water", 2, coupling)


def mode_fault(dpmd, tmp, env):
    proc = run([dpmd, "init", "--system", "water", "--demo",
                "--out", "water.dpm"], tmp, env)
    assert proc.returncode == 0, "dpmd init failed"

    # Long enough that the world is mid-run when rank 1 dies; the survivor
    # must fail fast through the transport's dead-peer detection (EOF on the
    # socket), not sit out the full run or the 60 s default timeout.
    base = ["--model", "water.dpm", "--system", "water",
            "--steps", "50000", "--thermo-every", "1000",
            "--flight-recorder", ".", "--timeout", "30"]
    procs = spawn_world(dpmd, "tcp", 2, base, tmp, env, "fault")

    time.sleep(3.0)
    for rank, p in enumerate(procs):
        assert p.poll() is None, (
            f"rank {rank} exited before the kill — run too short to test")
    procs[1].kill()
    outs = wait_world(procs, timeout=120)

    assert procs[1].returncode != 0, "SIGKILLed rank reports success?"
    assert procs[0].returncode != 0, (
        f"rank 0 exited cleanly after peer death:\n{outs[0]}")
    assert "check failed" in outs[0], (
        f"rank 0 did not fail through DP_CHECK:\n{outs[0]}")
    dump = os.path.join(tmp, "flightrec.rank0.json")
    assert os.path.exists(dump), "rank 0 left no flight dump"
    print("fault ok: survivor died via DP_CHECK with a flight dump")


BOOTSTRAP_LAUNCHES = 200  # back-to-back worlds of the bootstrap mode


def mode_bootstrap(dpmd, tmp, env):
    """Back-to-back 4-rank shm worlds that only join and leave. Every launch
    races the peers' shm_open against rank 0's create -> ftruncate window;
    a peer that mapped the segment before it had a size died of SIGBUS."""
    proc = run([dpmd, "init", "--system", "copper", "--demo",
                "--out", "copper.dpm"], tmp, env)
    assert proc.returncode == 0, "dpmd init failed"
    base = ["--model", "copper.dpm", "--system", "copper", "--cells", "1",
            "--steps", "0", "--timeout", "30"]
    failures = []
    for k in range(BOOTSTRAP_LAUNCHES):
        procs = spawn_world(dpmd, "shm", 4, base, tmp, env, f"boot{k}")
        outs = wait_world(procs, timeout=120)
        for rank, (p, out) in enumerate(zip(procs, outs)):
            if p.returncode != 0:
                failures.append(f"launch {k} rank {rank} exited {p.returncode}:\n{out}")
    assert not failures, (f"{len(failures)} failed ranks over {BOOTSTRAP_LAUNCHES} launches:\n"
                          + "\n".join(failures[:4]))
    print(f"bootstrap ok: {BOOTSTRAP_LAUNCHES} back-to-back 4-rank shm launches, zero failures")


def mode_blackbox(dpmd, blackbox, tmp, env):
    proc = run([dpmd, "init", "--system", "water", "--demo",
                "--out", "water.dpm"], tmp, env)
    assert proc.returncode == 0, "dpmd init failed"

    # Rank 0 segfaults at the step-8 sample; rank 1 blocks on the next
    # collective and fatals via the shm progress timeout. Both leave dumps
    # in the shared run dir.
    base = ["--model", "water.dpm", "--system", "water",
            "--steps", "20", "--thermo-every", "4",
            "--health", "--flight-recorder", ".",
            "--inject-segv", "8", "--timeout", "10"]
    procs = spawn_world(dpmd, "shm", 2, base, tmp, env, "bb")
    outs = wait_world(procs, timeout=120)
    for rank, p in enumerate(procs):
        assert p.returncode != 0, f"rank {rank} exited cleanly:\n{outs[rank]}"

    for rank in range(2):
        assert os.path.exists(os.path.join(tmp, f"flightrec.rank{rank}.json")), (
            f"missing flight dump for rank {rank}")

    # Directory form: dpblackbox globs, merges and checks the set.
    proc = run([sys.executable, blackbox, "--check", "--last", "4", tmp], tmp, env)
    assert proc.returncode == 0, "dpblackbox --check rejected the merged dumps"
    print("blackbox ok: 2 process dumps merged and within one step")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dpmd", required=True)
    ap.add_argument("--blackbox", help="path to tools/dpblackbox (blackbox mode)")
    ap.add_argument("--mode", choices=["parity", "fault", "blackbox", "bootstrap"],
                    required=True)
    args = ap.parse_args()

    env = child_env()
    with tempfile.TemporaryDirectory(prefix="dp_transport_test_") as tmp:
        if args.mode == "parity":
            mode_parity(args.dpmd, tmp, env)
        elif args.mode == "fault":
            mode_fault(args.dpmd, tmp, env)
        elif args.mode == "bootstrap":
            mode_bootstrap(args.dpmd, tmp, env)
        else:
            assert args.blackbox, "--blackbox required for blackbox mode"
            mode_blackbox(args.dpmd, args.blackbox, tmp, env)
    print(f"transport_test mode={args.mode}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
