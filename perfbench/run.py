"""Run one benchmark workload against the gtbezier sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics: set-up time (the median of
several set-ups, most in fresh interpreters), peak resident set, and the
mean wall time of one of the workload's operations over S seconds. Both
times are divided by the machine's slowdown as a speed probe measures it
(probe.py), which makes them reference-machine seconds; the times as
measured are printed too, for reading only. --trace 1
alternates a fixed number of untraced and traced operations and reports
per-layer metrics and the tracing overhead; the spans go to
.perfbench_out/trace-NAME-seedN.json. Either way
the outputs are checked afterwards, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9  # this process plus eight fresh interpreters
PROBE_EVERY_S = 0.05  # of operation time between two speed probes
SETUP_PROBES = 8  # speed probes right after each set-up sample

# One BLAS thread: the matrices are at most 31 wide, and a second thread
# only adds scheduling noise on a shared two-core machine.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def _setup(name, seed, workdir):
    """Import gtbezier, build the workload's inputs and warm it up.

    Returns (workload, import seconds, input-building seconds, set-up seconds).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gtbezier
    import gtbezier.cli  # noqa: F401  (the package does not import its cli)
    t1 = time.perf_counter()
    if Path(gtbezier.__file__).resolve().parent != SRC / "gtbezier":
        raise ImportError(f"gtbezier imported from {gtbezier.__file__}, not from {SRC}")
    import workloads  # the benchmark's own code: not part of set-up

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    t2 = time.perf_counter()
    wl = workloads.WORKLOADS[name](gtbezier, seed, workdir)
    t3 = time.perf_counter()
    wl.warm_up()
    t4 = time.perf_counter()
    return wl, t1 - t0, t3 - t2, (t1 - t0) + (t4 - t2)


def _scaled_setup(name, seed, workdir):
    """Set up, then divide the set-up seconds by the machine's slowdown,
    probed right afterwards in the same process. Returns (workload,
    (scaled seconds, seconds as measured))."""
    wl, _, _, setup_s = _setup(name, seed, workdir)
    import probe  # imports numpy, which gtbezier has loaded by now

    return wl, (setup_s / probe.SpeedProbe().run_for(SETUP_PROBES).slowdown(), setup_s)


def _setup_in_child(name, seed):
    """(scaled, as measured) set-up seconds of a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return tuple(map(float, res.stdout.split()[-2:]))


def _one_op(wl):
    """Seconds taken by one operation, or None if it failed."""
    t0 = time.perf_counter()
    try:
        wl.op()
    except Exception as exc:  # an operation failure is counted, not fatal
        print(f"operation failed: {exc!r}", file=sys.stderr)
        return None
    return time.perf_counter() - t0


def _timed_ops(wl, seconds, probe):
    """Run operations for at least `seconds`, with a speed probe after every
    PROBE_EVERY_S of them; returns (durations of the successful ones,
    attempted, failed, wall seconds)."""
    gc.collect()
    durations, attempted, since_probe = [], 0, 0.0
    start = time.perf_counter()
    while True:
        took = _one_op(wl)
        attempted += 1
        if took is not None:
            durations.append(took)
            since_probe += took
        if since_probe >= PROBE_EVERY_S or took is None:
            probe.run()
            since_probe = 0.0
        wall = time.perf_counter() - start
        if wall >= seconds:
            return durations, attempted, attempted - len(durations), wall


def _measure(name, seed, seconds, workdir):
    samples = [_setup_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    wl, sample = _scaled_setup(name, seed, workdir)
    samples.append(sample)
    import probe

    speed = probe.SpeedProbe()
    durations, attempted, failed, wall = _timed_ops(wl, seconds, speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    slowdown = speed.slowdown()
    mean_ms = 1e3 * statistics.fmean(durations) if durations else 0.0
    print(f"{name} as measured: setup_s median {statistics.median(s[1] for s in samples):.6g} s, "
          f"operation mean {mean_ms:.6g} ms over {wall:.3g} s; "
          f"slowdown {slowdown:.4g} from {len(speed.times['python'])} probes")
    metrics = {
        "setup_s": (statistics.median(s[0] for s in samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_ref_ms": (mean_ms / slowdown, "ms"),
    }
    return wl, attempted, failed, metrics


def _dir_bytes(dirs):
    return sum(p.stat().st_size for d in dirs if d.exists() for p in d.iterdir() if p.is_file())


def _trace(name, seed, workdir):
    import spans

    wl, import_s, inputs_s, _ = _setup(name, seed, workdir)
    tracer = spans.Tracer(wl.gt)
    # Untraced and traced operations alternate, so drift in the machine's
    # speed falls on both sides of the overhead estimate alike.
    plain = traced = 0.0
    failed, bytes_written = 0, 0
    gc.collect()
    for _ in range(wl.trace_ops):
        took = _one_op(wl)
        with tracer, tracer.span("bench.op"):
            took_traced = _one_op(wl)
        bytes_written += _dir_bytes(wl.outdirs)
        for t in (took, took_traced):
            failed += t is None
        plain += took or 0.0
        traced += took_traced or 0.0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json")

    totals = tracer.totals()

    def calls(fn):
        return totals.get(fn, (0, 0, 0))[0]

    def self_ms(fn):
        return totals.get(fn, (0, 0, 0))[2] / 1e6

    def us_per_call(fn):
        c, incl, _ = totals.get(fn, (0, 0, 0))
        return incl / 1e3 / c if c else 0.0

    rbm = totals.get("basis.rational_basis_matrix", (0, 0, 0))
    iters = wl.iterations()
    m = {
        "setup.import_ms": (1e3 * import_s, "ms"),
        "setup.inputs_ms": (1e3 * inputs_s, "ms"),
        "basis.values_per_s": (tracer.sizes.get("basis.rational_basis_matrix", 0) / (rbm[1] / 1e9)
                               if rbm[1] else 0.0, "1/s"),
        "pia.iterations.circle": (iters.get("circle", 0), "count"),
        "pia.iterations.helix": (iters.get("helix", 0), "count"),
        "export.bytes_written": (bytes_written, "B"),
        "cli.self_ms": (sum(t[2] for n, t in totals.items() if n.startswith("cli.")) / 1e6, "ms"),
        "trace.overhead_ms": (1e3 * (traced - plain), "ms"),
    }
    for fn in ("basis.log_basis_matrix", "basis.rational_basis_matrix",
               "totalpos.is_totally_positive", "totalpos.rational_collocation_matrix",
               "pia.pia_step", "curve.curve_points"):
        m[f"{fn}.calls"] = (calls(fn), "count")
    for fn in ("basis.log_basis_matrix", "basis.rational_basis_matrix",
               "totalpos.is_totally_positive", "totalpos.verify_ntp_suite",
               "totalpos.rational_collocation_matrix", "pia.pia_run", "pia.iteration_spectrum",
               "curve.curve_points", "curve.sample_polyline", "export.write_csv",
               "export.write_svg", "config.load_config"):
        m[f"{fn}.self_ms"] = (self_ms(fn), "ms")
    for fn in ("totalpos.is_totally_positive", "pia.pia_step"):
        m[f"{fn}.us_per_call"] = (us_per_call(fn), "us")
    return wl, 2 * wl.trace_ops, failed, m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the scaled and the measured set-up seconds and exit")
    args = p.parse_args(argv)

    if not (SRC / "gtbezier" / "__init__.py").is_file():
        print(f"no gtbezier sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            print(*_scaled_setup(args.workload, args.seed, workdir)[1])
            return 0
        if args.trace:
            wl, attempted, failed, metrics = _trace(args.workload, args.seed, workdir)
        else:
            wl, attempted, failed, metrics = _measure(args.workload, args.seed, args.seconds,
                                                      workdir)
        problems = wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
