#!/usr/bin/env python3
"""Measure the tracing overhead of each workload: traced minus untraced pass time.

    python3 perfbench/overhead.py --seed 1 --pairs 3 [--workload ip_torus ...]

Untraced and traced passes alternate in one process over the same inputs, so a
slow or fast spell of the host falls on both sides alike.  The overhead is the
median traced pass minus the median untraced pass, as measured and without
the host-speed probe on either side: scaling to full host speed would add the
probe's own error to a difference of a few percent.
"""

from __future__ import annotations

import argparse
import statistics

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    run.load_library()
    from tracer import Tracer
    from workloads import WORKLOADS

    for name in args.workload or run.WORKLOAD_NAMES:
        workload = WORKLOADS[name]()
        workload.prepare(args.seed)
        plain, traced = [], []
        for _ in range(args.pairs):
            for walls, tracer in ((plain, None), (traced, Tracer())):
                if tracer is not None:
                    tracer.install()
                try:
                    result = run.run_pass(workload, tracer, sample_host=False)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                if result.failed:
                    raise SystemExit(f"{name}: {result.failed} items failed: {result.witnesses[0]}")
                walls.append(result.wall)
        a, b = statistics.median(plain), statistics.median(traced)
        print(f"{name}: untraced {a:.3f} s, traced {b:.3f} s, overhead {b - a:+.3f} s ({(b - a) / a:+.1%})"
              f" over {args.pairs} pairs")


if __name__ == "__main__":
    main()
