#!/usr/bin/env python3
"""Run one qcab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exchange_walks --seed 1 --seconds 30 --trace 0

The workload runs as a closed loop from one process and one thread: each item
is sent after the previous one returned.  Passes over the same seeded inputs
repeat while another pass still fits in ``--seconds`` (at least one pass runs).
``wall_s`` is the median pass, and the item percentiles pool the items of all
passes.  End-to-end times are scaled to full host speed by a pure-Python probe
run before every item and every 0.1 s from a timer signal (see
``hostspeed.py``).  Every item is checked against an independent answer; a
failure is printed with its witness and makes the exit code 1.

With ``--trace 1`` the library's public functions are wrapped from outside
(see ``tracer.py``) and the per-layer metrics are reported instead: times are
means per pass and counts are per pass.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The library is imported from ``src/`` of the checkout that holds
this file; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import FULL_SPEED_S, HostSampler, host_probe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exchange_walks", "move_certify", "ip_torus")
PERCENTILES = (99.9, 99, 95, 90, 75, 50)
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median with this run's own
MAX_WITNESSES = 20
E2E_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up only, then print the set-up time as JSON")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_library() -> float:
    """Import qcab from this checkout's src/ and return the import time."""
    if not (SRC / "qcab" / "__init__.py").is_file():
        print(f"perfbench: no qcab sources at {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import qcab

    elapsed = perf_counter() - t0
    if Path(qcab.__file__).resolve().parent != (SRC / "qcab").resolve():
        print(f"perfbench: imported qcab from {qcab.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed


@dataclass
class PassResult:
    wall: float = 0.0  # at full host speed, without probe time
    raw_wall: float = 0.0  # as measured
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)
    counts: dict[str, int] | None = None


def run_pass(workload, tracer, sample_host: bool = True) -> PassResult:
    """Run every item once.

    With ``sample_host``, the host is probed before every item and from a
    timer, and wall time and latencies are scaled to full host speed;
    otherwise they stay as measured.  Traced runs do not sample: their times
    are per-layer times, reported as measured.
    """
    result = PassResult()
    if tracer is not None:
        tracer.begin_pass()
    spans: list[tuple[float, float, bool]] = []
    host = HostSampler() if sample_host else None
    with host or contextlib.nullcontext():
        t0 = perf_counter()
        for item in workload.items():
            if host is not None:
                host.sample()  # so that even a short item has a probe right before and right after it
            t_item = perf_counter()
            try:
                verdict = item.run()
            except Exception as exc:  # an item that raises is a failed item, named with its error
                verdict = f"raised {type(exc).__name__}: {exc}"
            spans.append((t_item, perf_counter(), item.timed))
            result.attempted += item.count
            if verdict is not None:
                n, text = (1, verdict) if isinstance(verdict, str) else (verdict.n, verdict.text)
                result.failed += n
                result.witnesses.append(f"item {item.label}: {text}")
        t1 = perf_counter()
    result.raw_wall = t1 - t0
    scaled = host.scaled if host is not None else lambda a, b: b - a
    # Each item, and each stretch between items, is scaled by the probes in and
    # around it, so a pass that is slow in one part and fast in another is
    # scaled part by part.  One speed for the whole pass would be weighted by
    # the probe count: the probes before 2,000 short items would set the speed
    # of a 30-s item that ran at another speed.
    bounds = [t0] + [t for a, b, _ in spans for t in (a, b)] + [t1]
    result.wall = sum(scaled(a, b) for a, b in zip(bounds, bounds[1:]))
    result.latencies = [scaled(a, b) for a, b, timed in spans if timed]
    if tracer is not None:
        result.counts = tracer.pass_counts()
    return result


def run_passes(workload, seconds: float, tracer) -> list[PassResult]:
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, tracer, sample_host=tracer is None))
        typical = statistics.median(p.raw_wall for p in passes)
        if perf_counter() - start + typical > seconds:
            return passes


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten items beyond it."""
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return PERCENTILES[-1]


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    distribution, q = p/100.  Where item costs leave gaps between ranks, a
    single order statistic jumps across a gap under small timing noise; this
    weighted mean moves smoothly.
    """
    import numpy as np  # not at the top: importing qcab imports numpy, and setup_s counts that

    x = np.sort(np.asarray(values, dtype=float))
    n, q, fine = len(x), p / 100, 64
    t = (np.arange(fine * n) + 0.5) / (fine * n)
    log_pdf = ((n + 1) * q - 1) * np.log(t) + ((n + 1) * (1 - q) - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(cdf[::fine] / cdf[-1])
    return float(weights @ x)


def setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(passes: list[PassResult], setup_s: float, peak_rss_mb: float) -> tuple[dict[str, float], str]:
    n_timed = len(passes[0].latencies)
    p_tail = tail_percentile(n_timed)  # chosen per pass, so it does not depend on the pass count
    latencies = [t for p in passes for t in p.latencies]
    wall_s = statistics.median(p.wall for p in passes)
    metrics = {
        "wall_s": wall_s,
        "items_per_s": passes[0].attempted / wall_s,
        "item_p50_ms": 1e3 * percentile(latencies, 50),
        "item_tail_ms": 1e3 * percentile(latencies, p_tail),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    note = f"p{p_tail:g} of {n_timed} timed items per pass"
    return metrics, note


def count_mismatch(passes: list[PassResult]) -> str | None:
    """Exact counts must not change from pass to pass."""
    first = passes[0].counts
    for i, p in enumerate(passes[1:], start=2):
        if p.counts != first:
            key = next(k for k in first if first[k] != p.counts.get(k))
            return f"trace count {key}: pass 1 has {first[key]}, pass {i} has {p.counts.get(key)}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    probe_before = host_probe()
    import_s = load_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup_s = import_s + workload.prepare(args.seed)
    setup_s *= FULL_SPEED_S / ((probe_before + host_probe()) / 2)  # set-up is short: probe around it
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        passes = run_passes(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the statistics allocate

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    witnesses = [w for p in passes for w in p.witnesses]
    head = f"{args.workload} seed {args.seed}: {len(passes)} passes of {passes[0].attempted} items"
    if tracer is None:
        setup_s = statistics.median([setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)])
        metrics, note = end_to_end(passes, setup_s, peak_rss_mb)
        units = E2E_UNITS
        raw = statistics.median(p.raw_wall for p in passes)
        print(f"{head}; median pass {raw:.6g} s as measured, {metrics['wall_s']:.6g} s at full host speed")
        for name, value in metrics.items():
            print(f"  {name:<14} {value:12.6g} {units[name]}" + (f"  ({note})" if name == "item_tail_ms" else ""))
        print(f"  {'fail_ratio':<14} {failed / attempted:12.6g} ratio  ({failed} of {attempted} items)")
    else:
        from tracer import layer_metric_units

        mismatch = count_mismatch(passes)
        if mismatch:
            failed += 1
            witnesses.append(mismatch)
        wall_s = statistics.fmean(p.raw_wall for p in passes)
        metrics = tracer.metrics(passes[0].counts, wall_s, len(passes))
        units = layer_metric_units()
        print(head + " (traced)")
        for name in units:
            print(f"  {name:<52} {metrics[name]:14.6g} {units[name]}")
        library = sum(v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith("bench."))
        print(f"  library self times {library:.6g} s + benchmark's own {metrics['bench.self_s']:.6g} s"
              f" = traced wall_s {wall_s:.6g} s")
    for witness in witnesses[:MAX_WITNESSES]:
        print(f"FAIL {args.workload} seed {args.seed} {witness}")
    if len(witnesses) > MAX_WITNESSES:
        print(f"FAIL ... and {len(witnesses) - MAX_WITNESSES} more")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
