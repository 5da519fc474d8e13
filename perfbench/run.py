#!/usr/bin/env python3
"""qtbs benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload solve-10k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # side-by-side table

Workloads are defined in ``workloads.py`` and generated by ``inputs.py``.
One run generates its inputs from ``--seed``, times the set-up in fresh
child processes (the first of which also reports peak RSS), runs one
warm-up pass that is excluded, then runs whole passes over the operations,
one operation at a time (closed loop, one caller, no threads), until
``--seconds`` of operation time have been spent. Every answer is checked
by ``check.py``; checking time is excluded from every metric.

Shared hosts change speed by up to twofold within seconds, so every timed
operation and set-up is bracketed by a fixed pure-Python reference loop and
its time is scaled to a host on which that loop takes HOST_REFERENCE_S
(``scaled``). The gated ``setup_s`` and ``ops_per_s`` and the per-kind
latencies are scaled; ``raw_setup_s`` and ``raw_ops_per_s`` are printed
alongside, unscaled.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` half the
budget runs under the tracer of ``tracing.py``, the same operations are
replayed untraced, and the JSON holds the per-layer metrics. The lines
before it are a readable report: metadata, every metric with unit and
sample count, and checker problems. The full report (with spans, when
traced) is written under ``perfbench/.work/``. The exit code is non-zero,
with no JSON line, when the qtbs sources are not next to this directory.
"""
import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 5
# Seconds the host reference loop takes on a calm host (a 2-vCPU Xeon VM
# with CPython 3.11); scaled times read as if measured on such a host.
HOST_REFERENCE_S = 1.3e-3
# Seconds between host reference samples taken inside a long operation.
PROBE_INTERVAL_S = 0.1

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_qtbs():
    """Import qtbs from ``src/`` of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qtbs" / "__init__.py").is_file():
        raise SystemExit(f"error: qtbs sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import qtbs

    if Path(qtbs.__file__).resolve().parent != (src / "qtbs").resolve():
        raise SystemExit(f"error: imported qtbs from {qtbs.__file__}, not {src}")
    return qtbs


def host_reference(repeats=1):
    """Seconds for a fixed pure-Python loop that does not touch qtbs: the
    median of ``repeats`` runs, with the garbage collector paused so that a
    collection of the library's heap never lands in it.

    A shared host changes speed by tens of percent, sometimes twofold, from
    one second to the next. The loop runs right before and after every timed
    operation, and the operation's time is divided by the loop's mean time
    around it (see ``scaled``): the ratio tracks the host far better than
    either time alone, because both are slowed alike at that moment.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            table = {str(i): i for i in range(5_000)}
            sum(table.values())
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def reference_repeats(seconds):
    """Reference runs after an operation of ``seconds``: one for short
    operations, up to 9 (about 1% of the time) for long ones."""
    return 1 + min(8, int(seconds / 0.05))


def scaled(seconds, samples):
    """``seconds`` at the host speed where the reference takes HOST_REFERENCE_S,
    given the reference ``samples`` taken around and during them."""
    return seconds * HOST_REFERENCE_S / statistics.fmean(samples)


class HostProbe:
    """Host reference samples taken while an operation runs.

    A SIGALRM every PROBE_INTERVAL_S runs the reference loop between two
    bytecodes of the operation, so that an operation of a second or more is
    scaled by the host's speed during it, not only at its two ends. The
    time spent in the samples (``spent``) is not the operation's.
    """

    def __init__(self):
        self.samples, self.spent, self.active = [], 0.0, False

    def _sample(self, *_):
        if self.active:
            t0 = time.perf_counter()
            self.samples.append(host_reference())
            self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent, self.active = [], 0.0, True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_probe(name, seed, workdir, tiny, rss):
    """Child process: time import + load; optionally one pass for peak RSS."""
    wl = WORKLOADS[name](seed, workdir, tiny)
    before = host_reference(9)
    t0 = time.perf_counter()
    import_qtbs()
    wl.load()
    setup = time.perf_counter() - t0
    after = host_reference(9)
    if rss:
        for _, _, call in wl.warmup() + next(wl.passes())[:1]:
            call()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": scaled(setup, [before, after]), "raw_setup_s": setup,
                      "rss_mb": peak}))


def run_probes(wl, n):
    """Set-up times of ``n`` fresh child processes; the first also reports RSS."""
    out = []
    for i in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
               "--seed", str(wl.seed), "--probe-dir", str(wl.workdir)]
        cmd += ["--probe-rss"] * (i == 0) + ["--tiny"] * wl.tiny
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(done.stdout.splitlines()[-1]))
    return out


class Ledger:
    """Per-key verdicts, raised errors and checking time of the operations run."""

    def __init__(self, wl):
        self.wl = wl
        self.seen = {}       # key -> fingerprint of the first answer
        self.wrong = {}      # key -> problems found on the first answer
        self.errors = []     # (kind, key, message) of raised operations
        self.check_s = 0.0
        self.host = []       # host reference samples, one before and after each op
        self.output_bytes = 0

    def record(self, kind, key, out, error):
        if error is not None:
            self.errors.append((kind, key, error))
            return False
        t0 = time.perf_counter()
        self.output_bytes += self.wl.output_bytes(kind, out)
        fp = self.wl.fingerprint(kind, out)
        if key not in self.seen:
            self.seen[key] = fp
            try:
                problems = self.wl.verify(kind, key, out)
            except Exception as exc:  # a malformed answer must not stop the run
                problems = [f"checker raised {type(exc).__name__}: {exc}"]
            if problems:
                self.wrong[key] = problems
        elif fp != self.seen[key]:
            self.wrong.setdefault(key, []).append("answer differs from the first one")
        self.check_s += time.perf_counter() - t0
        return key not in self.wrong


def run_ops(ops, ledger, scale=True):
    """Run (kind, key, call) ops; returns (kind, key, seconds, ok, scaled
    seconds) rows. With ``scale``, the host reference runs right before,
    during (``HostProbe``) and right after each op; the sample after one op
    is the next op's sample before it, unless a check ran in between.
    Without, scaled = seconds."""
    rows, before = [], None
    probe = HostProbe()
    for kind, key, call in ops:
        if scale and before is None:
            before = host_reference(9)
            ledger.host.append(before)
        error = None
        with probe if scale else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # counted as a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0 - probe.spent
        after = host_reference(reference_repeats(dt)) if scale else None
        t1 = time.perf_counter()
        ok = ledger.record(kind, key, out, error)
        if not scale:
            rows.append((kind, key, dt, ok, dt))
            continue
        ledger.host.append(after)
        rows.append((kind, key, dt, ok, scaled(dt, [before, after] + probe.samples)))
        before = after if time.perf_counter() - t1 < 0.01 else None
    return rows


def run_for(passes, budget, ledger):
    """Closed loop over whole passes until ``budget`` seconds of operation
    time are spent; returns the rows."""
    rows = []
    while sum(r[2] for r in rows) < budget:
        rows += run_ops(next(passes), ledger)
    return rows


def run_traced(passes, budget, ledger, tracer):
    """Like ``run_for``, but runs every operation twice, traced and
    untraced, back to back in alternating order, so that the tracing
    overhead is measured under the same host conditions; times are not
    scaled. Returns the traced and the untraced rows."""
    traced, plain = [], []
    while sum(r[2] for r in traced) < budget:
        for i, op in enumerate(next(passes)):
            for on in ((True, False) if i % 2 == 0 else (False, True)):
                if on:
                    tracer.install()
                try:
                    row = run_ops([op], ledger, scale=False)[0]
                finally:
                    if on:
                        tracer.uninstall()
                (traced if on else plain).append(row)
        ledger.host.append(host_reference(9))
    return traced, plain


def failed(rows, ledger):
    """Rows that raised, or whose key's answer was found wrong."""
    return sum(1 for _, key, _, ok, _ in rows if not ok or key in ledger.wrong)


def latency_metrics(wl, rows):
    """Per-kind scaled p50 (and p90 with >= 100 samples) in ms, with counts."""
    out = {}
    for kind in wl.kinds:
        xs = [1e3 * r[4] for r in rows if r[0] == kind]
        if not xs:
            continue
        suffix = "ms" if kind == "bound" else "p50_ms"
        out[f"{kind}_{suffix}"] = (statistics.median(xs), "ms", len(xs))
        if len(xs) >= 100:
            out[f"{kind}_p90_ms"] = (statistics.quantiles(xs, n=10)[-1], "ms", len(xs))
    return out


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(name, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """One benchmark run; returns (report, result line)."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        return _run(WORKLOADS[name](seed, workdir, tiny), seconds, trace, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seconds, trace, probes):
    spec = benchmark_spec()[trace]
    t0 = time.perf_counter()
    wl.generate()
    generate_s = time.perf_counter() - t0
    probe_out = [] if trace else run_probes(wl, probes)

    t0 = time.perf_counter()
    qtbs = import_qtbs()
    wl.load()
    main_setup_s = time.perf_counter() - t0

    ledger = Ledger(wl)
    warm = run_ops(wl.warmup(), ledger)

    metrics, spans = {}, None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        bytes_before = ledger.output_bytes
        rows, plain = run_traced(wl.passes(), seconds / 2.0, ledger, tracer)
        layers = tracing.layer_metrics(
            tracer, len(rows), sum(r[2] for r in rows), sum(r[2] for r in plain),
            (ledger.output_bytes - bytes_before) / 2)
        metrics = {k: (v, spec[k], len(rows)) for k, v in layers.items()}
        spans = tracer.dump()
        rows += plain
    else:
        rows = run_for(wl.passes(), seconds, ledger)
        n = len(rows)
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in probe_out), "s", probes),
            "ops_per_s": (n / sum(r[4] for r in rows), "1/s", n),
            "peak_rss_mb": (probe_out[0]["rss_mb"], "MB", 1),
            "raw_setup_s": (statistics.median(p["raw_setup_s"] for p in probe_out), "s", probes),
            "raw_ops_per_s": (n / sum(r[2] for r in rows), "1/s", n),
        }
        metrics.update(latency_metrics(wl, rows))

    t0 = time.perf_counter()
    for key, found in wl.final_check().items():
        if found:
            ledger.wrong.setdefault(key, []).extend(found)
    ledger.check_s += time.perf_counter() - t0

    n_failed = failed(rows, ledger)
    if not trace:
        metrics["error_rate"] = (n_failed / len(rows), "ratio", len(rows))
    problems = (
        [f"{kind} {key}: {e}" for kind, key, e in ledger.errors]
        + [f"{key}: {p}" for key, ps in ledger.wrong.items() for p in ps]
    )
    report = {
        "workload": wl.name,
        "why": inputs.WHY[wl.name],
        "seed": wl.seed,
        "seconds": seconds,
        "trace": trace,
        "kernel": qtbs.KERNEL_IMPLEMENTATION,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "warmup": f"{len(warm)} ops in {sum(r[2] for r in warm):.3f} s, excluded",
        "generate_s": generate_s,
        "main_setup_s": main_setup_s,
        "check_s": ledger.check_s,
        "host_reference_ms": 1e3 * statistics.median(ledger.host),
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "latencies_ms": {kind: [1e3 * r[4] for r in rows if r[0] == kind]
                         for kind in wl.kinds},
        "missing_layers": spans["missing"] if spans else [],
        "problems": problems,
    }
    with open(WORK / f"{wl.name}-seed{wl.seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**report, "spans": spans}, fh)
    result = {
        "correct": not problems,
        "attempted": len(rows),
        "failed": n_failed,
        "metrics": {k: {"value": metrics[k][0], "unit": unit}
                    for k, unit in spec.items() if k in metrics},
    }
    return report, result


# The end-to-end metrics every workload's report lists, applicable or not.
REPORTED = (
    "setup_s", "ops_per_s", "peak_rss_mb", "error_rate",
    "solve_p50_ms", "grad_flow_p50_ms", "grad_flow_p90_ms", "grad_link_p50_ms",
    "bound_ms", "route_p50_ms", "route_p90_ms", "shape_p50_ms", "taper_p50_ms",
)


def print_report(report):
    print(f"qtbs benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"{report['seconds']} s, trace {report['trace']}")
    print(f"why: {report['why']}")
    print(f"kernel {report['kernel']}, python {report['python']}, "
          f"nproc {report['nproc']}; warm-up {report['warmup']}")
    print(f"input generation {report['generate_s']:.3f} s, main-process set-up "
          f"{report['main_setup_s']:.3f} s, checking {report['check_s']:.3f} s "
          "(all excluded from metrics)")
    print(f"host reference loop median {report['host_reference_ms']:.3f} ms (fixed "
          "pure-Python work, not qtbs); times are scaled to a host where it takes "
          f"{1e3 * HOST_REFERENCE_S:g} ms, raw_* metrics are not")
    metrics = report["metrics"]
    names = list(metrics) if report["trace"] else list(REPORTED) + [
        k for k in metrics if k not in REPORTED]
    print(f"{'metric':<32}{'value':>14}  {'unit':<8}{'samples':>8}")
    for name in names:
        if name in metrics:
            m = metrics[name]
            print(f"{name:<32}{m['value']:>14.6g}  {m['unit']:<8}{m['samples']:>8}")
        else:
            print(f"{name:<32}{'n/a':>14}")
    if "trace.coverage" in metrics:
        coverage = metrics["trace.coverage"]["value"]
        verdict = "within" if abs(coverage - 1.0) <= 0.1 else "NOT within"
        print(f"layer self times add up to {100 * coverage:.1f}% of operation time "
              f"({verdict} 10%)")
    for layer in report["missing_layers"]:
        print(f"missing layer entry point: {layer}")
    for problem in report["problems"][:20]:
        print(f"PROBLEM: {problem}")


def print_side_by_side(reports):
    """One row per metric, one column per workload: value (samples)."""
    names = list(REPORTED) if not reports[0]["trace"] else list(reports[0]["metrics"])
    for r in reports:
        names += [k for k in r["metrics"] if k not in names]
    print(f"{'metric':<32}{'unit':<7}" + "".join(f"{r['workload']:>22}" for r in reports))
    for name in names:
        unit = next((r["metrics"][name]["unit"] for r in reports if name in r["metrics"]), "")
        cells = [
            f"{m['value']:.6g} ({m['samples']})" if (m := r["metrics"].get(name)) else "n/a"
            for r in reports
        ]
        print(f"{name:<32}{unit:<7}" + "".join(f"{c:>22}" for c in cells))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them with a side-by-side table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    # Set-up probes: the parent re-runs this file as a child process.
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    parser.add_argument("--probe-rss", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_dir:
        setup_probe(args.workload, args.seed, args.probe_dir, args.tiny, args.probe_rss)
        return 0
    import_qtbs()  # fail before any work when the sources are absent
    if args.workload == "all":
        reports = [run(name, args.seed, args.seconds, args.trace, args.tiny)[0]
                   for name in WORKLOADS]
        for report in reports:
            print_report(report)
            print()
        print_side_by_side(reports)
        return 0 if not any(r["problems"] for r in reports) else 1
    report, result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
