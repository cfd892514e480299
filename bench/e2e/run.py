#!/usr/bin/env python3
"""Full-MD-step benchmark of dpmd.

Builds dpmd and e2e_anatomy from the source tree this file sits in, writes
seeded inputs, and spawns `dpmd run` exactly as a user would. End-to-end
metrics are measured at the process boundary with tracing off; --trace 1
adds a traced run of e2e_anatomy and prints the per-layer metrics instead.

  python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                           [--trace 0|1] [--repeat N] [--build DIR]
                           [--out FILE]

Without --workload every workload runs; --repeat N runs all of them N times,
interleaved, with seeds N, N+1, ... and prints medians and quartiles. The
last line of stdout is one JSON object; the exit code is 0 only if every run
passed its output checks. Metric names and units come from BENCHMARK.json;
bench/e2e/README.md explains them.
"""

import argparse
import json
import math
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".bench_build"

WORKERS = 4  # threads of the 1x4 workloads, processes of the 4x1 ones
SETUP_REPS = 5  # --steps 0 runs per measurement; setup_s is their median
RUN_TIMEOUT_S = 120.0  # a dpmd job still running after this is killed and failed
# NVE check: |E_tot(last) - E_tot(0)| per atom must stay below this [eV].
# On every workload the drift is below dpmd's printed resolution (1e-6 eV
# in total), so this trips only on a broken integrator or force path.
NVE_BOUND_EV = 1e-4


@dataclass(frozen=True)
class Workload:
    data: str  # input file written by `e2e_anatomy gen`
    model: str  # model file written by `dpmd init`
    system: str
    atoms: int
    steps: int  # steps of one full run, sized to ~3 s on a 4-core host
    path: str = "fused"  # --path of the 1x4 workloads
    transport: str = ""  # tcp: WORKERS ranks of 1 thread; "" = 1 process

    @property
    def threads(self):
        return 1 if self.transport else WORKERS


# Both 4-rank workloads use tcp: 4-rank shm launches crash in bootstrap about
# once in 150 (a peer maps the segment before rank 0 has sized it, SIGBUS).
WORKLOADS = {
    "cu-paper-1x4": Workload("cu_864.data", "cu_paper.dpm", "copper", 864, 16),
    "water-mixed-1x4": Workload("water_1536.data", "water_paper.dpm", "water", 1536, 16,
                                path="mixed"),
    "cu-large-1x4": Workload("cu_16384.data", "cu_demo.dpm", "copper", 16384, 6),
    "cu-strong-tcp-4x1": Workload("cu_864.data", "cu_demo.dpm", "copper", 864, 80,
                                  transport="tcp"),
    "cu-slab-tcp-4x1": Workload("cu_slab.data", "cu_demo.dpm", "copper", 864, 60,
                                transport="tcp"),
}
MODELS = {
    "cu_paper.dpm": ["--system", "copper"],
    "cu_demo.dpm": ["--system", "copper", "--demo"],
    "water_paper.dpm": ["--system", "water"],
}
REBUILD_EVERY = 10  # --rebuild-every of the 4x1 workloads


class BenchError(Exception):
    """The benchmark itself cannot run (no source tree, build failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build and inputs --------------------------------------------------------


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no source tree at {ROOT}: nothing to build")
    build_dir.mkdir(parents=True, exist_ok=True)
    hook = HERE / "e2e.cmake"
    cache = build_dir / "CMakeCache.txt"
    steps = [["cmake", "--build", str(build_dir), "--target", "dpmd", "e2e_anatomy",
              "-j", str(WORKERS)]]
    if not cache.is_file() or str(hook) not in cache.read_text(errors="replace"):
        steps.insert(0, ["cmake", "-S", str(ROOT), "-B", str(build_dir),
                         f"-DCMAKE_PROJECT_INCLUDE={hook}"])
    with open(build_dir / "e2e_build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                tail = (build_dir / "e2e_build.log").read_text(errors="replace")[-4000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")
    return build_dir / "apps" / "dpmd", build_dir / "bench" / "e2e" / "e2e_anatomy"


def make_inputs(dpmd, anatomy, seed):
    """Seeded inputs: the same seed gives the same files."""
    inputs = WORK / "inputs" / f"seed-{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    cmds = [[str(anatomy), "gen", "--seed", str(seed), "--out", str(inputs)]]
    cmds += [[str(dpmd), "init", *flags, "--seed", str(seed), "--out", str(inputs / name)]
             for name, flags in MODELS.items()]
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            raise BenchError(f"input generation failed: {' '.join(cmd)}\n{r.stdout}")
    return inputs


# ---- jobs --------------------------------------------------------------------


@dataclass
class Job:
    wall: float  # spawn of the first process -> exit of the last [s]
    statuses: list  # exit codes (negative: killed by that signal)
    rss_mb: float  # max over processes of ru_maxrss
    outputs: list  # stdout+stderr text per process
    timed_out: bool


def tcp_rendezvous():
    # Port 0 lets the kernel pick a free port; rank 0 binds it right after.
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{s.getsockname()[1]}"


def spawn(argvs, threads, log_stem):
    """Runs one process per argv and waits for all of them."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DP_")}
    env["OMP_NUM_THREADS"] = str(threads)
    files = [open(f"{log_stem}.{r}.out", "w+") for r in range(len(argvs))]
    procs = []
    lock = threading.Lock()
    fired = threading.Event()

    def kill_all():
        fired.set()
        with lock:
            for p in procs:
                if p.returncode is None:
                    try:
                        os.kill(p.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill_all)
    statuses, rss_kb = [], 0
    t0 = time.perf_counter()
    try:
        for argv, f in zip(argvs, files):
            p = subprocess.Popen(argv, stdout=f, stderr=subprocess.STDOUT, env=env)
            with lock:
                procs.append(p)
        timer.start()
        for p in procs:
            # wait4 instead of Popen.wait: it also returns the child's rusage.
            _, status, usage = os.wait4(p.pid, 0)
            with lock:
                p.returncode = os.waitstatus_to_exitcode(status)
            statuses.append(p.returncode)
            rss_kb = max(rss_kb, usage.ru_maxrss)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        if len(statuses) < len(procs):  # a spawn or wait raised: leave no process behind
            kill_all()
        for p in procs:
            if p.returncode is None:
                os.wait4(p.pid, 0)
                p.returncode = -signal.SIGKILL
        outputs = []
        for f in files:
            f.seek(0)
            outputs.append(f.read())
            f.close()
    return Job(wall, statuses, rss_kb / 1024.0, outputs, fired.is_set())


def worker_argvs(program, w, inputs, steps, per_rank=lambda r: []):
    """One argv per process of the workload; `dpmd run` and `e2e_anatomy
    trace` take the same flags."""
    base = program + ["--data", str(inputs / w.data), "--model", str(inputs / w.model),
                      "--system", w.system, "--steps", str(steps)]
    if not w.transport:
        return [base + ["--path", w.path] + per_rank(0)]
    rdv = tcp_rendezvous()
    return [base + ["--rebuild-every", str(REBUILD_EVERY), "--transport", w.transport,
                    "--rank", str(r), "--world", str(WORKERS), "--rendezvous", rdv] + per_rank(r)
            for r in range(WORKERS)]


# ---- output checks -----------------------------------------------------------

THERMO_HEADER = re.compile(r"^\s*step\s+E_tot")
THERMO_ROW = re.compile(r"^\s*(\d+)\s+(\S+)\s+(\S+)")
COMM = re.compile(r"comm\[\w+\]: ([\d.]+) KB in (\d+) messages \(([\d.]+) KB wire\)")


def failure_tail(job):
    """Last output line of every process that exited nonzero."""
    return "; ".join(f"rank {r}: {(out.strip().splitlines() or ['(no output)'])[-1][:300]}"
                     for r, (s, out) in enumerate(zip(job.statuses, job.outputs)) if s != 0)


def expected_header(w):
    if w.transport:
        return (f"{w.system} | {w.atoms} atoms | distributed on {WORKERS} {w.transport} "
                "ranks |")
    return f"{w.system} | {w.atoms} atoms | path={w.path} |"


def check_run(w, steps, job):
    """Checks one dpmd job; returns (errors, parsed rank-0 output)."""
    errors = []
    if job.timed_out:
        errors.append(f"timed out after {RUN_TIMEOUT_S:.0f} s")
    if any(s != 0 for s in job.statuses):
        errors.append(f"exit status {job.statuses}; {failure_tail(job)}")
    text = job.outputs[0]
    # dpmd ignores flags it does not know, so the echoed header is the proof
    # that the run is the workload that was asked for.
    if not any(line.startswith(expected_header(w)) for line in text.splitlines()):
        errors.append(f"header does not match '{expected_header(w)}'")
    rows, in_table = {}, False
    for line in text.splitlines():
        if THERMO_HEADER.match(line):
            in_table = True
            continue
        m = THERMO_ROW.match(line) if in_table else None
        if m is None:
            in_table = False
            continue
        try:
            rows[int(m.group(1))] = (m.group(2), float(m.group(2)), float(m.group(3)))
        except ValueError:
            errors.append(f"unparsable thermo row '{line.strip()}'")
    parsed = {"e0": None, "comm": None}
    if 0 not in rows or steps not in rows:
        errors.append(f"thermo output lacks step 0 or step {steps}")
        return errors, parsed
    if not all(math.isfinite(e) and math.isfinite(t) for _, e, t in rows.values()):
        errors.append("non-finite thermo value")
        return errors, parsed
    drift = abs(rows[steps][1] - rows[0][1]) / w.atoms
    if drift > NVE_BOUND_EV:
        errors.append(f"NVE drift {drift:.3g} eV/atom > {NVE_BOUND_EV:g}")
    parsed["e0"] = rows[0][0]
    m = COMM.search(text)
    if m:
        parsed["comm"] = (float(m.group(1)) * 1024, int(m.group(2)), float(m.group(3)) * 1024)
    return errors, parsed


# ---- one workload ----------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Measurement:
    """Runs and checks the jobs of one workload and counts failures."""

    def __init__(self, name, w, tools, inputs):
        self.name, self.w, self.tools, self.inputs = name, w, tools, inputs
        self.attempted = self.failed = 0
        self.errors = []
        self.e0 = None
        self.stem = WORK / "runs" / name
        self.stem.mkdir(parents=True, exist_ok=True)

    def dpmd(self, steps):
        job = spawn(worker_argvs([str(self.tools[0]), "run"], self.w, self.inputs, steps),
                    self.w.threads, self.stem / f"dpmd{self.attempted}")
        errors, parsed = check_run(self.w, steps, job)
        if parsed["e0"] is not None:
            # Step 0 is the same state in every run: the setup-only run and
            # the full run must print the identical energy.
            self.e0 = self.e0 or parsed["e0"]
            if parsed["e0"] != self.e0:
                errors.append(f"step-0 E_tot {parsed['e0']} != {self.e0}")
        return self.record(f"dpmd --steps {steps}", errors), job, parsed

    def record(self, what, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{self.name}: {what}: {e}" for e in errors]
        return not errors

    def end_to_end(self, seconds):
        """Set-up runs, then full runs until `seconds` have passed (at least 2)."""
        t0 = time.perf_counter()
        setups = []
        for _ in range(SETUP_REPS):
            ok, job, parsed = self.dpmd(0)
            if ok:
                setups.append((job, parsed))
        fulls = []
        tries, last = 0, 0.0
        while tries < 2 or time.perf_counter() - t0 + last <= seconds:
            ok, job, parsed = self.dpmd(self.w.steps)
            tries, last = tries + 1, job.wall
            if ok:
                fulls.append((job, parsed))
        if not setups or not fulls:
            return None
        setup_s = statistics.median(j.wall for j, _ in setups)
        work = self.w.steps * self.w.atoms
        tts = [(j.wall - setup_s) / work * 1e6 for j, _ in fulls]
        res = {
            "setup_walls": [j.wall for j, _ in setups],
            "full_walls": [j.wall for j, _ in fulls],
            "tts": tts,
            "metrics": {
                "tts_us_per_step_atom": statistics.median(tts),
                "setup_s": setup_s,
                "peak_rss_mb": statistics.median(j.rss_mb for j, _ in fulls),
            },
        }
        comm_setup, comm_full = setups[0][1]["comm"], fulls[0][1]["comm"]
        if comm_setup and comm_full:
            res["comm_per_step"] = [(f - s) / self.w.steps for s, f in zip(comm_setup, comm_full)]
        return res

    def traced(self, e2e):
        """Bandwidth probe plus one traced run of the same inputs."""
        anatomy = str(self.tools[1])
        job = spawn([[anatomy, "triad"]], WORKERS, self.stem / "triad")
        errors = [] if job.statuses == [0] else [f"exit status {job.statuses}; {failure_tail(job)}"]
        if not self.record("e2e_anatomy triad", errors):
            return None
        triad = json.loads(job.outputs[0].strip().splitlines()[-1])

        w = self.w
        argvs = worker_argvs([anatomy, "trace"], w, self.inputs, w.steps,
                             lambda r: ["--spans", str(self.stem / f"spans.rank{r}.json")])
        spans = [Path(argv[-1]) for argv in argvs]
        for f in spans:
            f.unlink(missing_ok=True)
        job = spawn(argvs, w.threads, self.stem / "trace")
        errors = []
        if job.timed_out or any(s != 0 for s in job.statuses):
            errors.append(f"exit status {job.statuses}; {failure_tail(job)}")
            ranks = []
        else:
            ranks = [json.loads(f.read_text()) for f in spans]
            e0 = ranks[0]["facts"]["e0"]
            # dpmd prints E_tot with 6 decimals, so allow half of that
            # resolution on top of the 1e-9 relative agreement.
            if self.e0 is None or abs(e0 - float(self.e0)) > max(1e-9 * abs(e0), 5e-7):
                errors.append(f"harness step-0 E_tot {e0!r} != dpmd {self.e0}")
            if len([s for s in ranks[0]["spans"] if s["name"] == "md.step"]) != w.steps:
                errors.append("traced run did not record one span per step")
        if not self.record("e2e_anatomy trace", errors):
            return None
        return layer_metrics(w, ranks, job.wall, e2e, triad), triad, ranks[0]["simd"]


# ---- per-layer metrics -------------------------------------------------------------


def span_sums(d):
    """Per-rank step durations, force time inside steps and probe time."""
    spans = d["spans"]
    steps = {k: s["end"] - s["start"] for k, s in enumerate(spans) if s["name"] == "md.step"}
    force = sum(s["end"] - s["start"] for s in spans
                if s["name"] == "force.compute" and s["parent"] in steps)
    probe = sum(s["end"] - s["start"] for s in spans if s["name"] in ("probe", "probe.warmup"))
    return list(steps.values()), force, probe


def layer_metrics(w, ranks, traced_wall, e2e, triad):
    nranks = len(ranks)
    sums = [span_sums(d) for d in ranks]
    # The slowest rank sets each step's time.
    step_ms = [max(col) * 1e3 for col in zip(*(s[0] for s in sums))]
    step_total = statistics.mean(sum(s[0]) for s in sums)
    force = [s[1] for s in sums]
    work = w.steps * w.atoms  # every atom is a center on exactly one rank per step
    window_u = e2e["metrics"]["tts_us_per_step_atom"] * work * 1e-6  # untraced timed window

    probes = [p for d in ranks for p in d["probes"]]
    centers = sum(p["centers"] for p in probes)

    def per_atom_us(key):
        return sum(p[key] for p in probes) / centers * 1e6

    def host_gbs(bytes_key, time_key):
        # Ranks probe concurrently: host GB/s of probe k is the bytes of all
        # ranks over the slowest rank's time; report the median over probes.
        per_probe = zip(*(d["probes"] for d in ranks))
        return statistics.median(sum(p[bytes_key] for p in ps) / max(p[time_key] for p in ps)
                                 / 1e9 for ps in per_probe)

    facts = [d["facts"] for d in ranks]
    f0 = facts[0]
    force_us = sum(force) / work * 1e6
    env_us, fit_us, prod_us = (per_atom_us(k) for k in ("env_s", "fit_s", "prod_s"))
    env_gbs = host_gbs("env_bytes", "env_s")
    prod_gbs = host_gbs("prod_bytes", "prod_s")
    probe_wall = max(s[2] for s in sums)
    setup_s = e2e["metrics"]["setup_s"]
    comm = e2e.get("comm_per_step", [0.0, 0.0, 0.0])
    dist = nranks > 1
    m = {
        "md.step_ms_p50": statistics.median(step_ms),
        "md.step_ms_p95": statistics.quantiles(step_ms, n=20, method="inclusive")[18],
        "md.force_share": statistics.mean(s[1] / sum(s[0]) for s in sums),
        "md.neighbor_build_ms": statistics.median(
            max(p["neighbor_s"] for p in ps) for ps in zip(*(d["probes"] for d in ranks))) * 1e3,
        "md.unattributed_frac": (window_u - step_total) / window_u,
        "dp.env_mat_us_per_atom": env_us,
        "dp.env_mat_gbs": env_gbs,
        "dp.env_mat_bytes_per_atom": sum(p["env_bytes"] for p in probes) / centers,
        "dp.padding_frac": 1.0 - sum(p["filled_slots"] for p in probes)
        / sum(p["reserved_slots"] for p in probes),
        "dp.fit_us_per_atom": fit_us,
        "dp.prod_force_us_per_atom": prod_us,
        "dp.prod_force_gbs": prod_gbs,
        "fused.force_us_per_atom": force_us,
        "fused.embed_contract_us_per_atom": force_us - env_us - fit_us - prod_us,
        "fused.flops_per_atom": sum(f["flops"] for f in facts)
        / sum(f["force_centers"] for f in facts),
        "tab.table_bytes": f0["table_bytes"],
        "parallel.halo_wait_ms_per_step": f0["halo_wait_s"] / nranks / w.steps * 1e3
        if dist else 0.0,
        "parallel.halo_hidden_frac": f0["halo_hidden_s"]
        / (f0["halo_hidden_s"] + f0["halo_wait_s"]) if dist else 0.0,
        "parallel.bytes_per_step": comm[0],
        "parallel.msgs_per_step": comm[1],
        "parallel.wire_bytes_per_step": comm[2],
        "parallel.ghosts_per_local": f0["max_ghost_atoms"] / (w.atoms / nranks) if dist else 0.0,
        "parallel.rebuilds": f0["rebuilds"],
        "parallel.atom_imbalance": f0["load_imbalance"] if dist else 1.0,
        "parallel.force_time_imbalance": max(force) / statistics.mean(force),
        "host.triad_gbs": triad["triad_gbs"],
        "dp.env_mat_roofline_frac": env_gbs / triad["triad_gbs"],
        "dp.prod_force_roofline_frac": prod_gbs / triad["triad_gbs"],
        "trace.overhead_frac": (traced_wall - probe_wall - setup_s - window_u) / window_u,
    }
    return m


# ---- driver ------------------------------------------------------------------------


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def run_workload(name, tools, seed, seconds, trace):
    w = WORKLOADS[name]
    meas = Measurement(name, w, tools, make_inputs(*tools, seed))
    e2e = meas.end_to_end(seconds)
    out = {"workload": name, "seed": seed}
    if e2e is not None:
        out["e2e"] = {k: v for k, v in e2e.items() if k != "metrics"}
        out["metrics"] = dict(e2e["metrics"])
        if trace:
            layers = meas.traced(e2e)
            if layers is not None:
                out["metrics"].update(layers[0])
                out["triad"], out["simd"] = layers[1], layers[2]
    elif not meas.errors:
        meas.errors.append(f"{name}: no run completed")
    out.update(attempted=meas.attempted, failed=meas.failed, errors=meas.errors)
    return out


def host_descriptor(build_dir, results):
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = (build_dir / "CMakeCache.txt").read_text(errors="replace")
    options = dict(re.findall(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER|DP_\w+):\w+=(.*)$",
                              cache, re.M))
    flags = build_dir / "CMakeFiles" / "e2e_anatomy.dir" / "flags.make"
    cxx = re.search(r"^CXX_FLAGS = (.*)$", flags.read_text(), re.M) if flags.is_file() else None
    triad = next((r["triad"] for r in results if "triad" in r), {})
    return {"cpu": cpu, "nproc": os.cpu_count(), "llc_mib": triad.get("llc_mib"),
            "triad_array_mib": triad.get("array_mib"),
            "simd": next((r["simd"] for r in results if "simd" in r), None),
            "cmake": options, "cxx_flags": cxx.group(1) if cxx else None}


def main():
    spec, units = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    ap.add_argument("--seed", type=int, default=2022)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--build", type=Path, default=WORK / "cmake", help="CMake build directory")
    ap.add_argument("--out", type=Path, help="write every run's details as JSON here")
    args = ap.parse_args()
    names = args.workload or list(WORKLOADS)
    # The result line carries the end-to-end metrics, or with --trace 1 the
    # per-layer ones; both sets are printed above it.
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    try:
        tools = build(args.build.resolve())
    except BenchError as e:
        log(f"run.py: {e}")
        return 2

    results = []
    for rep in range(args.repeat):
        for name in names:  # interleaved: host drift hits every workload alike
            r = run_workload(name, tools, args.seed + rep, args.seconds, args.trace)
            results.append(r)
            for e in r["errors"]:
                log(f"FAILED {e}")
            print(f"-- {name} (seed {r['seed']})", flush=True)
            for k in units:
                if k in r.get("metrics", {}):
                    print(f"   {k:34s} {r['metrics'][k]:14.6g} {units[k]}", flush=True)
            if "triad" in r:
                t = r["triad"]
                print(f"   (triad: 3 arrays x {t['array_mib']} MiB, last-level cache "
                      f"{t['llc_mib']:g} MiB, {t['threads']} threads)", flush=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(set(wanted) <= set(r.get("metrics", {})) for r in results)

    summary = {}
    for name in names:
        runs = [r["metrics"] for r in results if r["workload"] == name and "metrics" in r]
        summary[name] = {}
        for k in units:
            vals = [m[k] for m in runs if k in m]
            if vals:
                q1, med, q3 = quartiles(vals)
                summary[name][k] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                                    "iqr_frac": (q3 - q1) / abs(med) if med else 0.0,
                                    "unit": units[k]}
    if args.repeat > 1:
        print("-- medians and quartiles over repeats", flush=True)
        for name, ms in summary.items():
            for k, s in ms.items():
                print(f"   {name:18s} {k:34s} {s['median']:12.6g} {s['unit']:6s} "
                      f"IQR/median {s['iqr_frac']:.4f} (n={s['n']})", flush=True)
    if args.out:
        args.out.write_text(json.dumps({
            "seed": args.seed, "repeat": args.repeat, "seconds": args.seconds,
            "trace": args.trace, "host": host_descriptor(args.build.resolve(), results),
            "summary": summary, "runs": results}, indent=1) + "\n")

    def block(values):
        return {k: {"value": values[k], "unit": units[k]} for k in wanted if k in values}

    if len(names) == 1 and args.repeat == 1:
        metrics = block(results[0].get("metrics", {}))
    else:
        metrics = {name: block({k: s["median"] for k, s in ms.items()})
                   for name, ms in summary.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
