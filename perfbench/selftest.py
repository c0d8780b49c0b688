"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the library's own test run.  Each
workload must pass at a tiny size, a planted wrong answer in each workload must
be counted and named, and traced counts must repeat exactly for a seed.
"""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_library()

import pytest  # noqa: E402
from qcab import braid, lusztig, torus  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import ExchangeWalks, IpTorus, MoveCertify  # noqa: E402

G2_SAMPLE = 300


@pytest.fixture
def small_g2_batch(monkeypatch):
    full = braid.g2_sequences
    monkeypatch.setattr(braid, "g2_sequences", lambda: itertools.islice(full(), G2_SAMPLE))


def tiny(name: str):
    if name == "exchange_walks":
        return ExchangeWalks(configs=(("B2", 4, 4), ("G2", 6, 3), ("G2", 8, 2)), heavy=("G2", 6, (2, 1, 3)))
    if name == "move_certify":
        return MoveCertify(types=("A3", "B3", "C3", "G2"), moves=12, g2_total=G2_SAMPLE)
    return IpTorus(types=("A2", "B3", "G2"), max_factors=3, oracle_factors=3, substitutions=(1,))


def run_once(workload, seed: int = 7, tracer=None) -> run.PassResult:
    workload.prepare(seed)
    return run.run_pass(workload, tracer, sample_host=tracer is None)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_passes(name, small_g2_batch):
    result = run_once(tiny(name))
    assert result.failed == 0, result.witnesses
    assert result.attempted > 0 and result.latencies and result.wall > 0


def test_exchange_walks_counts_a_corrupted_degree(monkeypatch):
    real = torus.predicted_degree

    def corrupted(state, position):
        g = real(state, position)
        return (g[0] + 1,) + g[1:] if position == 2 else g

    monkeypatch.setattr(torus, "predicted_degree", corrupted)
    result = run_once(tiny("exchange_walks"))
    assert result.failed == result.attempted  # position 2 is checked after every step
    assert "position 2" in result.witnesses[0] and "entry 1" in result.witnesses[0]


def test_move_certify_counts_a_wrong_parameter_map(monkeypatch, small_g2_batch):
    real = lusztig.cmap_by_degrees
    monkeypatch.setattr(lusztig, "cmap_by_degrees", lambda m, w, c: (real(m, w, c)[0] + 1,) + real(m, w, c)[1:])
    wl = tiny("move_certify")
    result = run_once(wl)
    # a 6-move's closed form is the degree conjugation itself, so only G2 items agree
    assert result.failed == sum(1 for case in wl.cases if case.kind_c != "six") > 0
    assert any("cmap_apply" in w and "entry 1" in w for w in result.witnesses)


def test_move_certify_counts_g2_mismatches(monkeypatch, small_g2_batch):
    monkeypatch.setattr(braid, "g2_exhaustive_certify",
                        lambda jobs=None: braid.CertReport(G2_SAMPLE, 3, 0, {}))
    result = run_once(tiny("move_certify"))
    assert result.failed == 3
    assert result.witnesses == [f"item g2_exhaustive_certify(jobs=1): 3 of {G2_SAMPLE} configurations mismatch"]


def test_ip_torus_counts_the_perturbed_fixture():
    wl = tiny("ip_torus")
    wl.prepare(7)
    wl.x4 = wl.x4_perturbed
    result = run.run_pass(wl, None)
    assert result.failed == 1
    assert result.witnesses == ["item B4 fixture: check 'bar_invariant': got False, want True"]


def test_traced_counts_repeat_and_tracing_is_removed():
    original = torus.mutate_state
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            assert torus.mutate_state is not original
            result = run_once(tiny("exchange_walks"), seed=3, tracer=tr)
        finally:
            tr.uninstall()
        assert result.failed == 0
        counts.append(result.counts)
    assert torus.mutate_state is original
    assert counts[0] == counts[1]
    assert counts[0]["torus.divide_right_exact.steps"] > 0
    assert counts[0]["torus.mutate_state.calls"] == result.attempted
    metrics = tr.metrics(counts[1], result.raw_wall, 1)
    assert set(metrics) == set(tracing.layer_metric_units())
    library = sum(v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith("bench."))
    assert library + metrics["bench.self_s"] == pytest.approx(result.raw_wall)


def test_host_sampler_scales_to_full_speed():
    full = hostspeed.FULL_SPEED_S
    host = hostspeed.HostSampler()
    host.starts, host.ends, host.probes = [0.0, 1.0, 2.0], [0.01, 1.01, 2.01], [2 * full, 2 * full, full]
    # one probe inside at half speed, one at half speed before, one at full speed after,
    # and 10 ms of probe time to leave out
    assert host.scaled(0.5, 1.5) == pytest.approx(0.99 * (0.5 + 0.5 + 1.0) / 3)
    # no probe inside: the probes on either side
    assert host.scaled(1.2, 1.4) == pytest.approx(0.2 * (0.5 + 1.0) / 2)


def test_pass_is_scaled_item_by_item(monkeypatch):
    class HalfSpeedHost:
        """Reads every interval handed to it as run at half of full speed."""

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def sample(self):
            pass

        def scaled(self, a, b):
            return (b - a) / 2

    monkeypatch.setattr(run, "HostSampler", HalfSpeedHost)
    result = run_once(tiny("ip_torus"))
    # the items and the stretches between them cover the pass exactly once
    assert result.wall == pytest.approx(result.raw_wall / 2, rel=1e-9)
    assert len(result.latencies) == result.attempted


def test_host_sampler_probes_from_a_timer_and_stops_it():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSampler() as host:
        t0 = perf_counter()
        while perf_counter() - t0 < 3.5 * hostspeed.GAP_S:
            sum(range(1000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.probes) >= 4  # one on entry, one on exit and the timer's
    assert host.starts == sorted(host.starts)


def test_tail_percentile_keeps_ten_items_beyond():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(73) == 75


def test_benchmark_file_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_metric_units()


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exchange_walks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
