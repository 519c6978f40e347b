"""Which public calls the traced run wraps, and the per-layer metrics.

:data:`PER_LAYER` lists every per-layer metric the traced run prints, with
its unit and direction; ``BENCHMARK.json`` lists the same names.  A metric
that a workload does not exercise reads 0 (for example the framing cost of
the in-process ``cold_replay`` workload), which is the "flat" side of the
layer table in ``perfbench/README.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List

from repro.attestation.protocol import AttestationReport
from repro.attestation.prover import Prover
from repro.attestation.verifier import Verifier
from repro.cpu.compile import COMPILE_CACHE
from repro.schemes import get_scheme
from repro.service.client import SimulatedProver
from repro.service.database import MeasurementDatabase
from repro.service.server import SchemeSessionPool

from perfbench.tracing import BUSY, NAME, Span, Tracer, format_ledger, ledger

SCHEMES = ("lofat", "cflat", "static")

#: (metric, unit, better) of every per-layer metric, in print order.
PER_LAYER = [
    ("cpu.ns_per_instr", "ns/instr", "lower"),
    ("cpu.compile_ms", "ms/miss", "lower"),
    ("schemes.lofat.reference_ms", "ms/call", "lower"),
    ("schemes.lofat.model_share", "ratio", "lower"),
    ("schemes.lofat.replay_ms", "ms/call", "lower"),
    ("schemes.cflat.replay_ms", "ms/call", "lower"),
    ("schemes.static.replay_ms", "ms/call", "lower"),
    ("attestation.prover_attest_ms", "ms/call", "lower"),
    ("attestation.verify_ms", "ms/call", "lower"),
    ("attestation.signature_checks_per_report", "calls/report", "lower"),
    ("attestation.signature_us", "us/call", "lower"),
    ("attestation.report_codec_us", "us/report", "lower"),
    ("attestation.framing_us", "us/frame", "lower"),
    ("attestation.report_bytes", "bytes/frame", "lower"),
    ("attestation.retained_kb_per_1k_reports", "KB/1k_reports", "lower"),
    ("service.database.lookup_us", "us/call", "lower"),
    ("service.database.hit_ratio", "ratio", "higher"),
    ("service.server.references_computed", "count", "lower"),
    ("service.server.verify_share", "ratio", "higher"),
    ("service.worker.attest_job_us", "us/call", "lower"),
    ("service.worker.replay_cache_hit_ratio", "ratio", "higher"),
    ("service.campaign.capture_s", "s", "lower"),
    ("service.campaign.attest_s", "s", "lower"),
    ("service.campaign.verify_s", "s", "lower"),
    ("service.tracestore.dedup_ratio", "ratio", "higher"),
    ("dataflow.analyze_ms", "ms/program", "lower"),
    ("lang.compile_ms", "ms/member", "lower"),
    ("isa.assemble_ms", "ms/program", "lower"),
    ("ledger.unattributed_share", "ratio", "lower"),
    ("ledger.tracing_overhead", "ratio", "lower"),
]


def _nonce(value) -> str:
    return value.hex()[:12]


class LayerCounters:
    """Values the wrappers collect besides span times."""

    def __init__(self) -> None:
        self.report_sizes: List[int] = []
        self.replay_hits = 0
        self.attest_jobs = 0
        self.analyzed_programs: set = set()
        self.compiles_seen = COMPILE_CACHE.compiles

    def report_size(self, span: Span, blob: bytes) -> None:
        self.report_sizes.append(len(blob))

    def attest_job(self, span: Span, response) -> None:
        self.attest_jobs += 1
        self.replay_hits += response.replay_cache_hits

    def analyzed(self, span: Span, analysis) -> None:
        self.analyzed_programs.add(analysis.program.digest)

    def plan(self, span: Span, plan) -> None:
        # A call that built a plan is a miss; the rest are cache hits.
        if COMPILE_CACHE.compiles != self.compiles_seen:
            self.compiles_seen = COMPILE_CACHE.compiles
        else:
            span.name = "cpu.compile_hit"


def install(tracer: Tracer, counters: LayerCounters) -> None:
    """Wrap every traced public call (see the layer table)."""
    function = tracer.wrap_function
    method = tracer.wrap_method
    function("repro.isa.assembler", "assemble", "isa.assemble")
    function("repro.lang.families", "compile_member", "lang.compile")
    function("repro.dataflow.program", "analyze_program", "dataflow.analyze",
             on_result=counters.analyzed)
    method(Verifier, "install_policy", "dataflow.analyze")
    tracer.wrap_bound(COMPILE_CACHE, "plan_for", "cpu.compile",
                      on_result=counters.plan)
    for name in SCHEMES:
        scheme_class = type(get_scheme(name))
        method(scheme_class, "reference_measurement",
               "schemes.%s.reference" % name)
        method(scheme_class, "replay_measurement", "schemes.%s.replay" % name)
    method(Prover, "attest", "attestation.prover_attest",
           request_of=lambda args: _nonce(args[1].nonce))
    method(Verifier, "challenge", "attestation.challenge")
    method(Verifier, "verify", "attestation.verify",
           request_of=lambda args: _nonce(args[1].nonce))
    function("repro.attestation.crypto", "verify_signature",
             "attestation.signature.verify",
             request_of=lambda args: _nonce(args[1]))
    function("repro.attestation.crypto", "sign_report",
             "attestation.signature.sign",
             request_of=lambda args: _nonce(args[1]))
    method(AttestationReport, "to_bytes", "attestation.report_codec",
           on_result=counters.report_size,
           request_of=lambda args: _nonce(args[0].nonce))
    method(AttestationReport, "from_bytes", "attestation.report_codec")
    function("repro.attestation.framing", "read_frame",
             "attestation.framing.read")
    function("repro.attestation.framing", "write_frame",
             "attestation.framing.write")
    method(MeasurementDatabase, "lookup", "service.database.lookup")
    method(MeasurementDatabase, "lookup_or_compute",
           "service.database.lookup_or_compute")
    method(SchemeSessionPool, "reference", "service.server.reference")
    method(SimulatedProver, "respond", "service.client.respond",
           request_of=lambda args: _nonce(args[1].nonce))
    function("repro.service.worker", "execute_attest_job",
             "service.worker.attest_job", on_result=counters.attest_job,
             request_of=lambda args: _nonce(args[0][1]))
    function("repro.service.worker", "execute_capture_job",
             "service.worker.capture_job")


class Tracing:
    """Switches span recording on for named phases of a workload.

    With tracing disabled every method is a no-op, so the untraced run
    executes the program's own functions, unwrapped.  With tracing enabled
    the wrappers are installed only inside :meth:`phase`, so the traced
    run's untraced comparison pass runs unwrapped as well.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.tracer = Tracer()
        #: Counters per phase name.
        self.counters: Dict[str, LayerCounters] = {}

    @contextmanager
    def phase(self, name: str):
        if not self.enabled:
            yield
            return
        install(self.tracer,
                self.counters.setdefault(name, LayerCounters()))
        self.tracer.phase = name
        self.tracer.recording = True
        try:
            yield
        finally:
            self.tracer.recording = False
            self.tracer.restore()

    @contextmanager
    def paused(self):
        """Record nothing inside: for the benchmark's own untimed calls."""
        recording = self.tracer.recording
        self.tracer.recording = False
        try:
            yield
        finally:
            self.tracer.recording = recording


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _rows(spans: List[tuple]) -> Dict[str, List[tuple]]:
    rows: Dict[str, List[tuple]] = {}
    for span in spans:
        rows.setdefault(span[NAME], []).append(span)
    return rows


def _total_ns(rows: Dict[str, List[tuple]], *names: str) -> int:
    return sum(span[BUSY] for name in names for span in rows.get(name, ()))


def _mean_ns(rows: Dict[str, List[tuple]], *names: str) -> float:
    return _mean(span[BUSY] for name in names for span in rows.get(name, ()))


def per_layer_metrics(run, tracing: Tracing) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced run (0 where unused)."""
    tracer = tracing.tracer
    counters = tracing.counters.get("timed", LayerCounters())
    setup_counters = tracing.counters.get("setup", LayerCounters())
    setup = _rows(tracer.phase_spans("setup"))
    timed_spans = tracer.phase_spans("timed")
    timed = _rows(timed_spans)
    traced, untraced = run.phases["traced"], run.phases["untraced"]
    reports = max(1, traced.reports)
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    values["cpu.ns_per_instr"] = run.bare.ns_per_instr
    values["cpu.compile_ms"] = _mean_ns(timed, "cpu.compile") / 1e6
    lofat_reference = _mean_ns(timed, "schemes.lofat.reference")
    values["schemes.lofat.reference_ms"] = lofat_reference / 1e6
    if lofat_reference and run.bare.mean_reference_run_ns:
        values["schemes.lofat.model_share"] = (
            lofat_reference - run.bare.mean_reference_run_ns) / lofat_reference
    for name in SCHEMES:
        values["schemes.%s.replay_ms" % name] = _mean_ns(
            timed, "schemes.%s.replay" % name) / 1e6
    values["attestation.prover_attest_ms"] = _mean_ns(
        timed, "attestation.prover_attest") / 1e6
    values["attestation.verify_ms"] = _mean_ns(timed, "attestation.verify") / 1e6
    values["attestation.signature_checks_per_report"] = len(
        timed.get("attestation.signature.verify", ())) / reports
    values["attestation.signature_us"] = _mean_ns(
        timed, "attestation.signature.verify",
        "attestation.signature.sign") / 1e3
    values["attestation.report_codec_us"] = _total_ns(
        timed, "attestation.report_codec") / 1e3 / reports
    frames = len(timed.get("attestation.framing.write", ()))
    if frames:
        values["attestation.framing_us"] = _total_ns(
            timed, "attestation.framing.read",
            "attestation.framing.write") / 1e3 / frames
    values["attestation.report_bytes"] = _mean(counters.report_sizes)
    values["attestation.retained_kb_per_1k_reports"] = run.retained_kb_per_1k
    values["service.database.lookup_us"] = _mean_ns(
        timed, "service.database.lookup") / 1e3
    values["service.database.hit_ratio"] = run.hit_ratio
    values["service.server.references_computed"] = len(
        timed.get("service.server.reference", ()))
    if traced.latencies_ms and run.wire:
        values["service.server.verify_share"] = (
            _mean_ns(timed, "attestation.verify") / 1e6
            / _mean(traced.latencies_ms))
    values["service.worker.attest_job_us"] = _mean_ns(
        timed, "service.worker.attest_job") / 1e3
    if counters.attest_jobs:
        values["service.worker.replay_cache_hit_ratio"] = (
            counters.replay_hits / counters.attest_jobs)
    for key, value in run.campaign_layers.items():
        values[key] = value
    programs = max(1, len(setup_counters.analyzed_programs))
    values["dataflow.analyze_ms"] = _total_ns(
        setup, "dataflow.analyze") / 1e6 / programs
    values["lang.compile_ms"] = _mean_ns(setup, "lang.compile") / 1e6
    values["isa.assemble_ms"] = _mean_ns(setup, "isa.assemble") / 1e6

    measured_ns = int(traced.seconds * 1e9)
    rows = ledger(timed_spans, measured_ns)
    values["ledger.unattributed_share"] = (
        rows["unattributed"]["self_ns"] / measured_ns if measured_ns else 0.0)
    values["ledger.tracing_overhead"] = (
        traced.seconds / untraced.seconds - 1.0 if untraced.seconds else 0.0)
    return values


def ledger_document(run, tracing: Tracing) -> Dict[str, dict]:
    """Per phase: the measured time and the ledger rows that split it."""
    document = {}
    measured = {"timed": int(run.phases["traced"].seconds * 1e9)}
    if run.setup_seconds:
        measured["setup"] = int(run.setup_seconds[-1] * 1e9)
    for phase, measured_ns in measured.items():
        document[phase] = {
            "measured_ns": measured_ns,
            "layers": ledger(tracing.tracer.phase_spans(phase), measured_ns),
        }
    return document


def ledger_text(run, tracing: Tracing, values: Dict[str, float]) -> str:
    """The human-readable ledger printed before the result line."""
    traced, untraced = run.phases["traced"], run.phases["untraced"]
    titles = {"timed": "timed phase (traced)", "setup": "set-up (traced)"}
    parts = [format_ledger(phase["layers"], phase["measured_ns"], titles[name])
             for name, phase in ledger_document(run, tracing).items()]
    parts.append("tracing overhead: %.1f reports/s untraced, %.1f traced "
                 "(%+.1f%% time)" % (
                     untraced.reports / untraced.seconds,
                     traced.reports / traced.seconds,
                     100.0 * values["ledger.tracing_overhead"]))
    parts.append("cpu.ns_per_instr: %.1f ns over %d bare runs, engine=%s" % (
        run.bare.ns_per_instr, run.bare.runs, run.bare.engine))
    units = {name: unit for name, unit, _ in PER_LAYER}
    parts.append("per-layer metrics:")
    for name, _, _ in PER_LAYER:
        parts.append("  %-42s %14.4f %s" % (name, values[name], units[name]))
    return "\n".join(parts)
