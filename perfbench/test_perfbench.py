"""Tests of the benchmark itself: output checks, the ledger and smoke runs.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  The smoke runs start
``perfbench/run.py`` in a subprocess, so the benchmark's cache clearing and
wrapping never touch the test process.
"""

from __future__ import annotations

import asyncio
import gzip
import json
import os
import subprocess
import sys
import time

import pytest

from perfbench.checks import Outcomes, report_digest
from perfbench.hostspeed import REFERENCE_NS, HostSpeed
from perfbench.tracing import FIELDS, NAME, Tracer, ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, timeout: float = 170.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- output checks
def _attested_report():
    from repro.attestation import Prover, Verifier
    from repro.lang.families import compile_member, get_family

    family = get_family("nest")
    params = family.grid[0]
    program = compile_member(family, params).program
    prover = Prover({"member": program})
    verifier = Verifier()
    verifier.register_device_key(prover.device_id,
                                 prover.keystore.export_for_verifier())
    verifier.register_program("member", program)
    inputs = (4, 77)
    report = prover.attest(verifier.challenge("member", inputs))
    expected_output = family.reference(params, inputs)
    return verifier, prover, report, inputs, expected_output


def _digest(report, inputs, cycles, reason):
    return report_digest("member", inputs, report.scheme, report.measurement,
                         report.metadata.to_bytes(), report.exit_code,
                         report.output, cycles, reason)


def test_flipped_byte_of_measurement_fails_the_output_check():
    verifier, prover, report, inputs, expected = _attested_report()
    cycles = prover.last_run.cycles
    recorded = Outcomes()
    recorded.report(0, "k0", _digest(report, inputs, cycles, "accepted"),
                    "accepted", "accepted", report.output, expected)
    assert recorded.correct

    flipped = bytearray(report.measurement)
    flipped[0] ^= 0x01
    report.measurement = bytes(flipped)
    verdict = verifier.verify(report)
    reason = verdict.reason.value
    outcomes = Outcomes()
    outcomes.report(0, "k0", _digest(report, inputs, cycles, reason),
                    reason, "accepted", report.output, expected)
    assert not verdict.accepted
    assert outcomes.failed == 1 and not outcomes.correct
    mismatch = outcomes.first_mismatch(recorded.table())
    assert mismatch is not None and "report 0 (k0)" in mismatch


def test_flipped_byte_alone_changes_the_digest():
    _, prover, report, inputs, _ = _attested_report()
    cycles = prover.last_run.cycles
    good = _digest(report, inputs, cycles, "accepted")
    flipped = bytearray(report.measurement)
    flipped[-1] ^= 0x80
    report.measurement = bytes(flipped)
    outcomes = Outcomes()
    outcomes.report(3, "k3", _digest(report, inputs, cycles, "accepted"),
                    "accepted", "accepted")
    assert outcomes.correct
    assert outcomes.first_mismatch({"k3": good}).startswith("report 3 (k3)")


def test_wrong_verdict_fails_the_output_check():
    outcomes = Outcomes()
    assert outcomes.report(0, "a", "d0", "accepted", "accepted")
    assert not outcomes.report(1, "b", "d1", "accepted", "nonce_reused")
    assert outcomes.attempted == 2 and outcomes.failed == 1
    assert not outcomes.correct
    assert "verdict 'accepted', expected 'nonce_reused'" in outcomes.problems[0]


def test_wrong_output_fails_the_output_check():
    outcomes = Outcomes()
    outcomes.report(0, "a", "d0", "accepted", "accepted", "41\n", "42\n")
    assert outcomes.failed == 1


# ------------------------------------------------------------------- ledger
def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class _Layers:
    """Stand-ins for traced program calls (inner nested in outer)."""

    @staticmethod
    def inner() -> None:
        _spin(0.01)

    @staticmethod
    def outer() -> None:
        _spin(0.01)
        _Layers.inner()

    @staticmethod
    async def waiting() -> None:
        _spin(0.01)
        await asyncio.sleep(0.05)
        _spin(0.01)


def test_self_times_split_nested_and_suspended_spans():
    originals = dict(vars(_Layers))
    tracer = Tracer()
    tracer.wrap_method(_Layers, "inner", "layer.inner")
    tracer.wrap_method(_Layers, "outer", "layer.outer")
    tracer.wrap_method(_Layers, "waiting", "layer.async")
    tracer.recording = True
    tracer.phase = "timed"
    started = time.perf_counter_ns()
    try:
        _Layers.outer()
        asyncio.run(_Layers.waiting())
        _spin(0.01)
    finally:
        measured = time.perf_counter_ns() - started
        tracer.restore()
    assert all(vars(_Layers)[name] is originals[name]
               for name in ("inner", "outer", "waiting"))
    spans = {span[NAME]: dict(zip(FIELDS, span)) for span in tracer.spans}
    outer, inner = spans["layer.outer"], spans["layer.inner"]
    assert inner["parent"] == outer["index"]
    assert outer["self_ns"] == outer["busy_ns"] - inner["busy_ns"]
    waiting = spans["layer.async"]
    # The 50 ms asleep is not busy time.
    assert (0.015e9 < waiting["busy_ns"] < 0.045e9
            < waiting["end_ns"] - waiting["start_ns"])
    rows = ledger(tracer.spans, measured)
    attributed = sum(row["self_ns"] for name, row in rows.items()
                     if name != "unattributed")
    assert attributed + rows["unattributed"]["self_ns"] == measured
    assert rows["unattributed"]["self_ns"] > 0.05e9  # the sleep and spin


def test_traced_run_layers_plus_unattributed_match_measured_time():
    result = _result(_run("--workload", "warm_wire", "--seconds", "0.5",
                          "--trace", "1"))
    assert result["correct"]
    names = {metric["name"] for metric in _benchmark_spec()["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["service.database.hit_ratio"] == 1.0
    assert metrics["service.server.references_computed"] == 0
    path = os.path.join(ROOT, ".perfbench-out",
                        "warm_wire-seed20170618.ledger.json")
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    timed = document["timed"]
    rows = timed["layers"]
    assert rows["unattributed"]["self_ns"] >= 0
    total = sum(row["self_ns"] for row in rows.values())
    assert total == timed["measured_ns"]
    spans_path = os.path.join(ROOT, ".perfbench-out",
                              "warm_wire-seed20170618.spans.jsonl.gz")
    with gzip.open(spans_path, "rt", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [dict(zip(header, json.loads(line))) for line in handle]
    timed_spans = [s for s in spans if s["phase"] == "timed"]
    roots = sum(s["busy_ns"] for s in timed_spans if s["parent"] is None)
    # Self times partition the root spans' busy time: nothing is counted
    # twice, and the layers account for everything the ledger attributes.
    assert sum(s["self_ns"] for s in timed_spans) == roots
    assert roots == total - rows["unattributed"]["self_ns"]


# --------------------------------------------------------------- host speed
def test_host_speed_probe_skips_held_intervals_and_the_clock():
    host = HostSpeed()
    host.start()
    try:
        _spin(0.1)
        host.hold()
        held_at, held_clock = host.mark(), host.clock()
        _spin(0.1)
        held_samples = host.mark() - held_at
        held_seconds = host.clock() - held_clock
        host.release()
        released = host.mark() - held_at
        _spin(0.1)
    finally:
        host.stop()
    assert host.mark() >= 5
    # A probe due while held runs once, at the release.
    assert held_samples == 0 and released == 1
    assert 0.1 <= held_seconds < 0.11
    assert host.spent == pytest.approx(sum(host.samples) / 1e9)
    assert host.factor(0) == pytest.approx(
        REFERENCE_NS * len(host.samples) / sum(host.samples))
    assert HostSpeed().factor(0) == 1.0


# -------------------------------------------------------------- smoke runs
@pytest.mark.parametrize("workload", ["cold_replay", "warm_wire", "campaign"])
def test_smoke_run(workload):
    result = _result(_run("--workload", workload, "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = {metric["name"] for metric in _benchmark_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
