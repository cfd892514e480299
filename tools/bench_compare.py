#!/usr/bin/env python3
"""bench_compare — noise-aware diff of BENCH_*.json against a committed baseline.

The bench binaries (bench/neighbor_build, bench/prod_force, bench/fit_block
and others) emit a single JSON document per run: {"metrics": [...],
"events": [...]}, one event per configuration sweep point. This gate compares a fresh run against the
committed trajectory under bench/baselines/ with tolerances that separate
what is deterministic from what is machine noise:

  * structural fields (workspace bytes, steady-state allocation counts,
    byte ratios, sweep coordinates) are machine-independent — compared
    near-exactly; any drift is a real regression (e.g. a workspace that
    started growing per step again).
  * within-run timing *ratios* (compact/dense kernel time, thread speedup)
    cancel the machine's absolute speed — compared with a multiplicative
    tolerance, and only in the direction that means a regression.
  * absolute seconds are only compared under --strict-time (CI runners do
    not share a clock with the baseline host).
  * fields outside the rules are carried but never compared: `lanes` (the
    SIMD width the run dispatched) is machine-dependent, and a baseline
    recorded before a field existed simply skips the derived ratios that
    need it — old baselines stay valid when a bench grows new columns.

Exit codes: 0 ok, 1 regression, 2 bad input.
"""

import argparse
import json
import math
import sys

STRICT_REL_TOL = 1e-6

# Per-event-name comparison rules. `key` identifies a sweep point across
# runs; `strict` fields must match; `higher_better` / `lower_better` are
# ratio-style fields judged with the multiplicative tolerance, failing only
# when the fresh value regresses (lower resp. higher than allowed);
# `floors` are absolute minima checked against the fresh run alone — they
# encode acceptance criteria that hold regardless of what the baseline
# host happened to measure.
RULES = {
    "build": {
        "key": ["atoms", "threads"],
        "strict": ["workspace_bytes", "steady_state_alloc_free"],
        "higher_better": ["speedup_vs_1t"],
        "derived": {},
    },
    "prod_force": {
        "key": ["sel", "threads"],
        "strict": [
            "dense_bytes",
            "compact_bytes",
            "bytes_ratio",
            "padding_fraction",
            "steady_state_alloc_free",
        ],
        "higher_better": [],
        # Within-run ratios: compact kernel time over dense kernel time.
        # Lower is better; both sides of the ratio come from the same run,
        # so the machine's absolute speed cancels.
        "derived": {
            "env_compact_over_dense": ("compact_env_seconds", "dense_env_seconds"),
            "prod_compact_over_dense": ("compact_prod_seconds", "dense_prod_seconds"),
            # Tabulation walk at the dispatched SIMD level over forced
            # scalar: same run, same slot walk, only the dispatch differs.
            # Baselines recorded before the SIMD path existed lack the
            # fields, so the ratio is skipped against them.
            "tab_vector_over_scalar": ("tab_vector_seconds", "tab_scalar_seconds"),
        },
    },
    "rebalance": {
        "key": ["ranks", "atoms"],
        # The count-equalized imbalance rides on the fp trajectory (an atom
        # near a slab plane can land either side under a different FMA
        # contraction), so it is not compared strictly. The gates are the
        # force-parity verdict (pure arithmetic, 0/1), the reduction fraction
        # vs baseline, and an absolute floor — the acceptance bar itself,
        # independent of what the baseline achieved.
        "strict": ["force_parity_ok"],
        "higher_better": ["imbalance_reduction"],
        "floors": {"imbalance_reduction": 0.25},
        "derived": {},
    },
    # Per-transport byte accounting of one fixed 2-rank run: message count
    # and payload/wire bytes are set by the decomposition and the framing,
    # not the clock — any drift means the communication pattern changed.
    "comm_shm": {
        "key": [],
        "strict": ["messages", "bytes", "wire_bytes"],
        "higher_better": [],
        "derived": {},
    },
    "comm_tcp": {
        "key": [],
        "strict": ["messages", "bytes", "wire_bytes"],
        "higher_better": [],
        "derived": {},
    },
    # Fit-block microbench (bench/fit_block.cpp), one event per hidden
    # layer of the paper fitting nets at nn::kFitBlock rows and thread
    # count. The block's rows and FLOPs are structural. The GEMM rates are
    # read against an FMA probe run next to them in the same process, and
    # the tanh kernel against a std::tanh loop over the same elements:
    # within-run ratios that cancel the host's clock. Absolute seconds,
    # probe GFLOP/s and `lanes` are carried, never compared.
    "fit_block": {
        "key": ["net", "layer", "threads"],
        "strict": ["rows", "flops"],
        "higher_better": ["fwd_over_probe", "bwd_over_probe", "act_speedup_vs_libm"],
        "derived": {},
    },
    "mixed": {
        "key": ["atoms"],
        # Table footprint and the byte ratios of the reduced-precision
        # tables are pure model structure: Single must hold at exactly half
        # the double bytes, Half at a quarter. Per-step coefficient traffic
        # is likewise deterministic (neighbor list x embedding width x
        # element size).
        "strict": [
            "table_bytes_double",
            "table_bytes_single",
            "table_bytes_half",
            "single_bytes_ratio",
            "half_bytes_ratio",
            "step_bytes_double",
            "step_bytes_single",
            "step_bytes_half",
        ],
        "higher_better": [],
        # Mixed-over-double time per step, both sides from the same run so
        # absolute machine speed cancels. A ratio climbing past the factor
        # means the float-lane path lost its advantage (e.g. the batched
        # kernels stopped dispatching). `lanes_sp` and the force-RMSE
        # columns are carried but never compared: the former is
        # machine-dependent, the latter varies in the last bits with the
        # dispatched level.
        "derived": {
            "mixed_single_over_double": ("single_seconds", "double_seconds"),
            "mixed_half_over_double": ("half_seconds", "double_seconds"),
        },
    },
}


def load_events(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    events = {}
    for ev in doc.get("events", []):
        name = ev.get("name", "")
        if name not in RULES:
            continue
        fields = dict(ev.get("fields", [])) if isinstance(
            ev.get("fields"), list) else dict(ev.get("fields", {}))
        key = tuple(fields.get(k) for k in RULES[name]["key"])
        events[(name, key)] = fields
    return events


def rel_close(a, b, tol):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale <= tol


def derived_ratio(fields, num_key, den_key):
    num = fields.get(num_key)
    den = fields.get(den_key)
    if num is None or den is None or den <= 0.0:
        return None
    return num / den


def compare(base, fresh, factor, strict_time, time_tol):
    """Returns a list of human-readable regression messages."""
    problems = []
    for (name, key), bf in sorted(base.items(), key=lambda kv: str(kv[0])):
        point = f"{name}{dict(zip(RULES[name]['key'], key))}"
        ff = fresh.get((name, key))
        if ff is None:
            problems.append(f"{point}: sweep point missing from fresh run")
            continue
        rule = RULES[name]
        for f in rule["strict"]:
            if f not in bf:
                continue
            if f not in ff:
                problems.append(f"{point}: field '{f}' missing from fresh run")
            elif not rel_close(bf[f], ff[f], STRICT_REL_TOL):
                problems.append(
                    f"{point}: {f} changed {bf[f]:g} -> {ff[f]:g} "
                    f"(machine-independent field; must match baseline)"
                )
        for f in rule["higher_better"]:
            if f in bf and f in ff and ff[f] < bf[f] / factor:
                problems.append(
                    f"{point}: {f} regressed {bf[f]:.3g} -> {ff[f]:.3g} "
                    f"(allowed down to {bf[f] / factor:.3g})"
                )
        for f, floor in rule.get("floors", {}).items():
            if f in ff and ff[f] < floor:
                problems.append(
                    f"{point}: {f} = {ff[f]:.3g} is below the absolute floor "
                    f"{floor:g} (acceptance criterion, baseline-independent)"
                )
        for dname, (num, den) in rule["derived"].items():
            bratio = derived_ratio(bf, num, den)
            fratio = derived_ratio(ff, num, den)
            if bratio is None or fratio is None:
                continue
            if fratio > bratio * factor:
                problems.append(
                    f"{point}: {dname} regressed {bratio:.3g} -> {fratio:.3g} "
                    f"(allowed up to {bratio * factor:.3g})"
                )
        if strict_time:
            for f in bf:
                if not f.endswith(("seconds", "seconds_per_build")):
                    continue
                if f in ff and not rel_close(bf[f], ff[f], time_tol):
                    problems.append(
                        f"{point}: {f} drifted {bf[f]:.3g} -> {ff[f]:.3g} "
                        f"(--strict-time tolerance {time_tol:g})"
                    )
    for (name, key) in fresh:
        if (name, key) not in base:
            problems.append(
                f"{name}{dict(zip(RULES[name]['key'], key))}: "
                f"new sweep point not in baseline (re-bless the baseline)"
            )
    return problems


def selftest():
    base = {
        ("build", (1000.0, 4.0)): {
            "workspace_bytes": 4096.0,
            "steady_state_alloc_free": 0.0,
            "speedup_vs_1t": 3.0,
        },
        ("prod_force", (160.0, 2.0)): {
            "dense_bytes": 8000.0,
            "compact_bytes": 2000.0,
            "bytes_ratio": 0.25,
            "padding_fraction": 0.5,
            "steady_state_alloc_free": 0.0,
            "dense_env_seconds": 1.0,
            "compact_env_seconds": 0.5,
            "dense_prod_seconds": 1.0,
            "compact_prod_seconds": 0.6,
        },
    }

    def clone():
        return {k: dict(v) for k, v in base.items()}

    # Identical runs pass.
    assert compare(base, clone(), 2.0, False, 0.5) == []
    # Timing noise within the factor passes.
    noisy = clone()
    noisy[("build", (1000.0, 4.0))]["speedup_vs_1t"] = 1.8
    noisy[("prod_force", (160.0, 2.0))]["compact_env_seconds"] = 0.8
    assert compare(base, noisy, 2.0, False, 0.5) == []
    # Structural drift fails even when tiny.
    drift = clone()
    drift[("build", (1000.0, 4.0))]["steady_state_alloc_free"] = 2.0
    assert any("steady_state_alloc_free" in p for p in compare(base, drift, 2.0, False, 0.5))
    # Ratio regression beyond the factor fails.
    slow = clone()
    slow[("prod_force", (160.0, 2.0))]["compact_env_seconds"] = 1.5
    assert any("env_compact_over_dense" in p for p in compare(base, slow, 2.0, False, 0.5))
    # Speedup collapse fails.
    collapse = clone()
    collapse[("build", (1000.0, 4.0))]["speedup_vs_1t"] = 1.0
    assert any("speedup_vs_1t" in p for p in compare(base, collapse, 2.0, False, 0.5))
    # Missing sweep point fails.
    missing = clone()
    del missing[("build", (1000.0, 4.0))]
    assert any("missing" in p for p in compare(base, missing, 2.0, False, 0.5))
    # Absolute seconds ignored by default, gated by --strict-time.
    slower = clone()
    slower[("prod_force", (160.0, 2.0))]["dense_env_seconds"] = 3.0
    slower[("prod_force", (160.0, 2.0))]["compact_env_seconds"] = 1.5
    assert compare(base, slower, 2.0, False, 0.5) == []
    assert any("dense_env_seconds" in p for p in compare(base, slower, 2.0, True, 0.5))
    # An old baseline (recorded before the SIMD columns existed) accepts a
    # fresh run carrying lanes + tab_* — extra fields are never compared and
    # the derived ratio is skipped when the baseline side is missing.
    widened = clone()
    widened[("prod_force", (160.0, 2.0))].update(
        {"lanes": 8.0, "tab_scalar_seconds": 1.0, "tab_vector_seconds": 0.2}
    )
    assert compare(base, widened, 2.0, False, 0.5) == []
    # And symmetrically: a new baseline against a fresh run that lacks them
    # (e.g. a bench built from an older branch) skips rather than fails.
    assert compare(widened, clone(), 2.0, False, 0.5) == []
    # When both sides carry the fields, a collapsed vector speedup fails.
    vec_base = widened
    vec_slow = {k: dict(v) for k, v in widened.items()}
    vec_slow[("prod_force", (160.0, 2.0))]["tab_vector_seconds"] = 0.9
    assert any("tab_vector_over_scalar" in p
               for p in compare(vec_base, vec_slow, 2.0, False, 0.5))
    # lanes is machine-dependent, never strict: a baseline from an AVX-512
    # host must pass on a scalar runner.
    narrow = {k: dict(v) for k, v in widened.items()}
    narrow[("prod_force", (160.0, 2.0))]["lanes"] = 1.0
    narrow[("prod_force", (160.0, 2.0))]["tab_vector_seconds"] = 1.0
    assert compare(widened, narrow, 10.0, False, 0.5) == []
    # Mixed-precision ablation events: structural byte ratios are strict,
    # the mixed/double time ratio is factor-gated, lanes_sp and force RMSE
    # are carried but never compared.
    mixed_base = {
        ("mixed", (192.0,)): {
            "table_bytes_double": 1000.0,
            "table_bytes_single": 500.0,
            "table_bytes_half": 250.0,
            "single_bytes_ratio": 0.5,
            "half_bytes_ratio": 0.25,
            "step_bytes_double": 8000.0,
            "step_bytes_single": 4000.0,
            "step_bytes_half": 2000.0,
            "double_seconds": 1.0,
            "single_seconds": 0.8,
            "half_seconds": 0.9,
            "single_force_rmse": 1e-10,
            "lanes_sp": 16.0,
        },
    }

    def mixed_clone():
        return {k: dict(v) for k, v in mixed_base.items()}

    assert compare(mixed_base, mixed_clone(), 2.0, False, 0.5) == []
    # A Single table that stopped shrinking is structural drift.
    fat = mixed_clone()
    fat[("mixed", (192.0,))]["single_bytes_ratio"] = 1.0
    assert any("single_bytes_ratio" in p for p in compare(mixed_base, fat, 2.0, False, 0.5))
    # Mixed path losing its speed advantage beyond the factor fails.
    lost = mixed_clone()
    lost[("mixed", (192.0,))]["single_seconds"] = 2.0
    assert any("mixed_single_over_double" in p
               for p in compare(mixed_base, lost, 2.0, False, 0.5))
    # A scalar runner (lanes_sp 1, slightly different RMSE, slower in
    # absolute terms but same within-run ratios) passes.
    scalar_host = mixed_clone()
    scalar_host[("mixed", (192.0,))].update(
        {"lanes_sp": 1.0, "single_force_rmse": 2e-10, "double_seconds": 5.0,
         "single_seconds": 4.5, "half_seconds": 4.8}
    )
    assert compare(mixed_base, scalar_host, 2.0, False, 0.5) == []
    # Rebalance events: the reduction fraction carries an absolute floor
    # (the acceptance criterion) on top of the baseline ratio, and the
    # force-parity verdict is strict.
    reb_base = {
        ("rebalance", (4.0, 2048.0)): {
            "imbalance_fixed": 2.0,
            "imbalance_rebalanced": 1.1,
            "imbalance_reduction": 0.45,
            "force_parity_ok": 1.0,
        },
        ("comm_shm", ()): {"messages": 133.0, "bytes": 551608.0, "wire_bytes": 172432.0},
    }

    def reb_clone():
        return {k: dict(v) for k, v in reb_base.items()}

    assert compare(reb_base, reb_clone(), 2.0, False, 0.5) == []
    # A reduction within the factor of the baseline but under the absolute
    # floor still fails: the floor is the acceptance bar, not noise margin.
    floor_miss = reb_clone()
    floor_miss[("rebalance", (4.0, 2048.0))]["imbalance_reduction"] = 0.24
    assert any("absolute floor" in p for p in compare(reb_base, floor_miss, 2.0, False, 0.5))
    # Collapse vs baseline beyond the factor fails too (even above a tiny floor).
    reb_collapse = reb_clone()
    reb_collapse[("rebalance", (4.0, 2048.0))]["imbalance_reduction"] = 0.1
    assert any("imbalance_reduction regressed" in p
               for p in compare(reb_base, reb_collapse, 2.0, False, 0.5))
    # Losing bit-level force parity is a hard failure.
    no_parity = reb_clone()
    no_parity[("rebalance", (4.0, 2048.0))]["force_parity_ok"] = 0.0
    assert any("force_parity_ok" in p for p in compare(reb_base, no_parity, 2.0, False, 0.5))
    # Transport byte accounting is deterministic: any drift is structural.
    chatty = reb_clone()
    chatty[("comm_shm", ())]["wire_bytes"] = 200000.0
    assert any("wire_bytes" in p for p in compare(reb_base, chatty, 2.0, False, 0.5))
    # Fit-block events: the block shape and FLOPs are strict, the ratios to
    # the in-process probe and to libm tanh are factor-gated, absolute
    # rates are never compared.
    fit_base = {
        ("fit_block", (0.0, 0.0, 1.0)): {
            "rows": 32.0,
            "flops": 31457280.0,
            "fwd_seconds": 6e-4,
            "probe_gflops": 80.0,
            "fwd_over_probe": 0.6,
            "bwd_over_probe": 0.5,
            "act_speedup_vs_libm": 12.0,
        },
    }

    def fit_clone():
        return {k: dict(v) for k, v in fit_base.items()}

    assert compare(fit_base, fit_clone(), 3.0, False, 0.5) == []
    # A slower host (probe and GEMM both halved) passes: the ratio holds.
    slow_host = fit_clone()
    slow_host[("fit_block", (0.0, 0.0, 1.0))].update(
        {"fwd_seconds": 1.2e-3, "probe_gflops": 40.0})
    assert compare(fit_base, slow_host, 3.0, False, 0.5) == []
    # A tile that fell off the roof beyond the factor fails.
    off_roof = fit_clone()
    off_roof[("fit_block", (0.0, 0.0, 1.0))]["fwd_over_probe"] = 0.15
    assert any("fwd_over_probe" in p for p in compare(fit_base, off_roof, 3.0, False, 0.5))
    # A tanh that fell back to libm fails.
    libm = fit_clone()
    libm[("fit_block", (0.0, 0.0, 1.0))]["act_speedup_vs_libm"] = 1.0
    assert any("act_speedup_vs_libm" in p for p in compare(fit_base, libm, 3.0, False, 0.5))
    # A different block size is structural drift.
    rows16 = fit_clone()
    rows16[("fit_block", (0.0, 0.0, 1.0))].update({"rows": 16.0, "flops": 15728640.0})
    assert any("rows" in p for p in compare(fit_base, rows16, 3.0, False, 0.5))
    print("bench_compare selftest: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="committed BENCH_*.json")
    ap.add_argument("--fresh", help="freshly produced BENCH_*.json")
    ap.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="multiplicative tolerance for within-run ratio fields (default 2.0)",
    )
    ap.add_argument(
        "--strict-time",
        action="store_true",
        help="also compare absolute seconds (only meaningful on the baseline host)",
    )
    ap.add_argument(
        "--time-tolerance",
        type=float,
        default=0.5,
        help="relative tolerance for --strict-time (default 0.5)",
    )
    ap.add_argument("--selftest", action="store_true", help="run internal checks")
    args = ap.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.fresh:
        ap.error("--baseline and --fresh are required (or --selftest)")
    if not (args.factor >= 1.0) or not math.isfinite(args.factor):
        ap.error("--factor must be a finite value >= 1.0")

    base = load_events(args.baseline)
    fresh = load_events(args.fresh)
    if not base:
        print(f"bench_compare: no known events in {args.baseline}", file=sys.stderr)
        return 2
    problems = compare(base, fresh, args.factor, args.strict_time, args.time_tolerance)
    if problems:
        print(f"bench_compare: {len(problems)} regression(s) vs {args.baseline}:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(
        f"bench_compare: {len(base)} sweep point(s) match {args.baseline} "
        f"(ratio factor {args.factor:g}"
        + (", strict time" if args.strict_time else "")
        + ")"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
