#!/usr/bin/env python3
"""The modeling system's benchmark: one seeded command, one ledger row.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

Run from the repository root. It builds `perfbench-core` (a package of its
own, against the repository's crates) and runs the three phases -- corpus,
serve and wa_sweep -- each as SLICES processes, round-robin. The named
workload gets FOCUS_SHARE of the measuring time and the other two phases
share the rest, so every result carries every end-to-end metric. With
`--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer ones. Every correctness check runs in both modes;
a failed check makes the command exit 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

PHASES = ("corpus", "serve", "wa_sweep")
FOCUS_SHARE = 0.5
# Each phase runs as this many processes, round-robin with the other
# phases, so every metric samples the whole run rather than one stretch of
# it: on a shared host, contention changes within seconds.
SLICES = 3
# All phases together must end well inside the 180 s a run may take.
PHASES_DEADLINE_S = 170

# (name, unit, phase that measures it); setup_s and peak_rss_mb come from
# every phase.
END_TO_END = [
    ("setup_s", "s", None),
    ("cold_kernels_per_s", "blocks/s", "corpus"),
    ("warm_kernels_per_s", "blocks/s", "corpus"),
    ("incore_mape_pct", "%", "corpus"),
    ("mca_mape_pct", "%", "corpus"),
    ("requests_per_s", "req/s", "serve"),
    ("sweep_points_per_s", "points/s", "wa_sweep"),
    ("peak_rss_mb", "MB", None),
]

# Set-up layers: every phase reports its share, the row carries the sum.
SUMMED_LAYERS = ("kernels.generate_ms", "uarch.compose_ms")
# Measured like the end-to-end metrics but not gated (see README).
UNGATED = ("p50_ms", "p99_ms")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Build perfbench-core; return the binary's path."""
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=root)
    if proc.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return os.path.join(target, "release", "perfbench-core")


def tool_output(cmd, root):
    try:
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest(root):
    """SHA-256 over the program's sources: names the code a result measured
    even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of the VM from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(f) for f in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_phase(binary, phase, args, seconds, work, deadline):
    cmd = [
        binary, phase,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--work", work,
    ]
    start, ticks = time.monotonic(), cpu_ticks()
    try:
        timeout = max(1.0, deadline - start)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{phase} phase timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{phase} phase failed (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - start
    # Share of the VM's CPU time the hypervisor withheld during the phase:
    # context for the wall-clock figures, not used by any metric.
    end = cpu_ticks()
    if ticks and end and end[1] > ticks[1]:
        result["steal"] = (end[0] - ticks[0]) / (end[1] - ticks[1])
    else:
        result["steal"] = None
    return result


def quantile(ordered, q):
    """Linear-interpolation quantile of an ascending list (as stats.rs)."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(samples, unit, n):
    ordered = sorted(samples)
    return {
        "value": quantile(ordered, 0.5), "unit": unit,
        "q1": quantile(ordered, 0.25), "q3": quantile(ordered, 0.75), "n": n,
    }


def pooled(slices, key):
    """A phase's metrics (`key` = "metrics" or "layers") over all its
    processes: the median and quartiles of every repetition's value, and
    for a rate the total work over the total seconds instead of the
    median. On the shared host a repetition's speed jumped between two
    levels for stretches of seconds, and the median of such a sample jumps
    with it where the total does not."""
    acc = {}
    for s in slices:
        for name, m in s[key].items():
            a = acc.setdefault(name, {"unit": m["unit"], "samples": [], "parts": [], "n": 0})
            a["samples"].extend(m["samples"])
            a["parts"].extend(m["parts"])
            a["n"] += m["n"]
    out = {}
    for name, a in acc.items():
        out[name] = summary(a["samples"], a["unit"], a["n"])
        if a["parts"]:
            out[name]["value"] = sum(w for w, _ in a["parts"]) / sum(s for _, s in a["parts"])
    return out


def merged_checks(phase, slices):
    """One line per check over the phase's processes, plus the check that
    every process of the phase produced the same output digest."""
    checks = {}
    for s in slices:
        for c in s["checks"]:
            prev = checks.get(c["name"])
            if prev is None or (prev["ok"] and not c["ok"]):
                checks[c["name"]] = dict(c)
    for c in checks.values():
        c["detail"] += f" [worst of {len(slices)} processes]"
    digests = sorted({s["digest"] for s in slices})
    checks[f"{phase}.output_repeats"] = {
        "name": f"{phase}.output_repeats",
        "ok": len(digests) == 1,
        "detail": f"output digests of {len(slices)} processes: {digests}",
    }
    return list(checks.values())


def fmt(m):
    spread = "" if m["q1"] == m["q3"] else f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
    return f"{m['value']:.6g} {m['unit']}{spread}  n={m['n']}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=PHASES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-t{args.trace}")
    os.makedirs(work, exist_ok=True)

    rest = (1.0 - FOCUS_SHARE) / (len(PHASES) - 1)
    deadline = time.monotonic() + PHASES_DEADLINE_S
    slices = {phase: [] for phase in PHASES}
    for k in range(SLICES):
        for phase in PHASES:
            share = FOCUS_SHARE if phase == args.workload else rest
            seconds = args.seconds * share / SLICES
            part = os.path.join(work, f"{phase}-{k}")
            os.makedirs(part, exist_ok=True)
            slices[phase].append(run_phase(binary, phase, args, seconds, part, deadline))
    threads = slices[args.workload][0]["nproc"]

    checks = [c for phase in PHASES for c in merged_checks(phase, slices[phase])]
    failed_checks = [c for c in checks if not c["ok"]]
    every = [s for ss in slices.values() for s in ss]
    attempted = sum(s["attempted"] for s in every) + len(checks)
    failed = sum(s["failed"] for s in every) + len(failed_checks)

    metrics = {phase: pooled(slices[phase], "metrics") for phase in PHASES}
    setups = [
        summary([v for s in slices[phase] for v in s["setup_s"]["samples"]], "s",
                sum(s["setup_s"]["n"] for s in slices[phase]))
        for phase in PHASES
    ]
    end_to_end = {}
    for name, unit, phase in END_TO_END:
        if name == "setup_s":
            end_to_end[name] = {
                "value": sum(v["value"] for v in setups), "unit": unit,
                "q1": sum(v["q1"] for v in setups), "q3": sum(v["q3"] for v in setups),
                "n": min(v["n"] for v in setups),
            }
        elif name == "peak_rss_mb":
            rss = [s["peak_rss_mb"] for s in slices[args.workload]]
            end_to_end[name] = summary(rss, unit, len(rss))
        else:
            end_to_end[name] = metrics[phase][name]

    per_layer = {}
    for phase in PHASES:
        for name, m in pooled(slices[phase], "layers").items():
            if name in per_layer and name in SUMMED_LAYERS:
                acc = per_layer[name]
                for k in ("value", "q1", "q3"):
                    acc[k] += m[k]
            elif name not in per_layer:
                per_layer[name] = m

    compositions = sorted((s["composition"] for s in slices["corpus"] if s["composition"]),
                          key=lambda c: c[-1][1])
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": threads,
        "commit": tool_output(["git", "rev-parse", "HEAD"], root),
        "source_digest": source_digest(root),
        "rustc": tool_output(["rustc", "--version"], root),
        "phase_seconds": {k: round(sum(s["elapsed_s"] for s in v), 3) for k, v in slices.items()},
        "output_digests": {k: v[0]["digest"] for k, v in slices.items()},
        "steal_share": {k: [s["steal"] for s in v] for k, v in slices.items()},
        "inputs": {k: [s["inputs"] for s in v] for k, v in slices.items()},
        "failed_frac": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "checks": checks,
        "composition": compositions[len(compositions) // 2] if compositions else [],
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(provenance, fh, indent=1)

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={threads} commit={provenance['commit']} source={provenance['source_digest']} "
          f"rustc={provenance['rustc']!r}")
    shown = per_layer if args.trace else end_to_end
    for name, m in shown.items():
        print(f"  {name:<28} {fmt(m)}")
    if not args.trace:
        for name in UNGATED:
            print(f"  {name:<28} {fmt(per_layer[name])}  (per-layer, not gated)")
    print(f"  {'failed_frac':<28} {failed}/{attempted} = {failed / attempted:.6g} failed/attempted")
    if args.trace and provenance["composition"]:
        row = "  ".join(f"{k} {v:.4f}" for k, v in provenance["composition"])
        print(f"  composition of wall x workers (corpus cold pass): {row}")
    for c in checks:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} -- {c['detail']}")
    print("# provenance " + json.dumps(provenance, separators=(",", ":")))

    metrics = per_layer if args.trace else end_to_end
    result = {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(0 if result["correct"] and failed == 0 else 1)


if __name__ == "__main__":
    main()
