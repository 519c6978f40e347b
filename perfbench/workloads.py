"""The three workloads: ``cold_replay``, ``warm_wire`` and ``campaign``.

Each workload drives the same verifier through one of its public entry
points, as a closed loop (a simulated device waits for its verdict before it
asks for the next challenge) with at most two callers:

* ``cold_replay`` -- the library: :class:`Prover` / :class:`Verifier`, one
  caller, LO-FAT, default golden replay, fresh inputs every round.
* ``warm_wire`` -- the wire server: :class:`AttestationServer` and two
  :class:`AttestationClient` connections on one event loop over loopback
  TCP; every report is a database hit and a prover replay-cache hit.
* ``campaign`` -- the campaign runner: :class:`CampaignRunner` on the seeded
  family campaign plus the hand-written full campaign.

Every run is a fixed, seeded schedule whose length depends only on
``--seconds``: the same seed and length give the same report mix, so each
percentile is an order statistic of the same population on every run.  The
set-up (compile, assemble, analyse, capture, warm-up) finishes before the
first timed operation and is timed on its own as ``setup_s``.  Every time
is taken on the probe-free clock of :mod:`perfbench.hostspeed` and scaled to
the reference host speed, per chunk of the timed phase and per set-up.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.adversary.seeds import derive_rng
from repro.attestation.prover import Prover
from repro.attestation.verifier import Verifier
from repro.cpu.compile import clear_compile_cache
from repro.cpu.core import DECODE_CACHE, Cpu, CpuConfig
from repro.dataflow.program import clear_analysis_cache
from repro.lang.families import FAMILY_REGISTRY, Family, family_matrix
from repro.service import (
    CampaignRunner,
    CampaignSpec,
    TraceStore,
    WorkloadSelection,
    family_campaign,
    full_campaign,
)
from repro.service.client import AttestationClient, SimulatedProver
from repro.service.server import AttestationServer
from repro.service.tracestore import execution_signature
from repro.service.worker import clear_replay_cache
from repro.workloads import get_workload

from perfbench.checks import DEFAULT_SEED, Outcomes, report_digest
from perfbench.hostspeed import HostSpeed
from perfbench.layers import SCHEMES, Tracing
from perfbench.tracing import NAME

#: Schedule sizes per second of ``--seconds``, fixed so that a run takes
#: about ``--seconds`` on a 2-CPU x86-64 host at the commit that defined
#: the benchmark.  They are constants, not measured rates: a faster program
#: finishes the same schedule sooner.
COLD_ROUNDS_PER_S = 56
WIRE_SLOTS_PER_S = 3000
CAMPAIGN_ITERATIONS_PER_S = 0.25

#: The timed phase is split into this many equal chunks; rates are the
#: median over chunks, which keeps one burst of outside load from moving
#: the figure.
CHUNKS = 20

#: Every ``RESUBMIT_EVERY``-th report of a wire caller resubmits the
#: caller's previous report, which must come back ``nonce_reused``: the 5%
#: duplicate share of the repository's fleet traffic model (docs/SERVER.md,
#: ``repro fleet-load --duplicate 0.05``).
RESUBMIT_EVERY = 20
WIRE_CALLERS = 2
#: Reports measured under tracemalloc for the retained-memory metric.
RETENTION_SLOTS = 2000
#: Upper bound on one wire pass; a pass that takes longer fails its
#: unfinished reports as timed out.
WIRE_PASS_TIMEOUT_S = 150.0

#: Family campaign shape: input vectors per member and repeats per job.
CAMPAIGN_INPUT_SETS = 4
CAMPAIGN_REPEATS = 3


class SetupFailed(RuntimeError):
    """The workload could not be set up (a set-up round was rejected)."""


@dataclass
class Phase:
    """One pass over the timed schedule."""

    #: Seconds as measured (probe time excluded), for the traced ledger.
    seconds: float = 0.0
    reports: int = 0
    jobs: int = 0
    #: Verify latencies, each scaled by its chunk's host-speed factor.
    latencies_ms: List[float] = field(default_factory=list)
    #: (scaled seconds, reports, jobs) per chunk (per iteration for campaign).
    chunks: List[Tuple[float, int, int]] = field(default_factory=list)

    def add_chunk(self, seconds: float, reports: int, jobs: int,
                  latencies_ms: Sequence[float], factor: float) -> None:
        """Add one chunk measured at host-speed ``factor``."""
        self.chunks.append((seconds * factor, reports, jobs))
        self.latencies_ms.extend(value * factor for value in latencies_ms)
        self.seconds += seconds
        self.reports += reports
        self.jobs += jobs

    def reports_per_s(self) -> float:
        return statistics.median(r / s for s, r, _ in self.chunks)

    def jobs_per_s(self) -> float:
        return statistics.median(j / s for s, _, j in self.chunks)


@dataclass
class BareRuns:
    """``Cpu.run`` without observers over the workload's executions."""

    ns_per_instr: float = 0.0
    runs: int = 0
    engine: str = "-"
    #: Mean bare-run time over the executions the traced phase referenced.
    mean_reference_run_ns: float = 0.0


@dataclass
class Run:
    """Everything one benchmark run measured."""

    outcomes: Outcomes = field(default_factory=Outcomes)
    setup_seconds: List[float] = field(default_factory=list)
    phases: Dict[str, Phase] = field(default_factory=dict)
    bare: BareRuns = field(default_factory=BareRuns)
    retained_kb_per_1k: float = 0.0
    hit_ratio: float = 0.0
    wire: bool = False
    campaign_layers: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Member:
    """One program of the 28-member ``repro.lang`` family matrix."""

    name: str
    family: Family
    params: dict

    def inputs(self, *labels) -> Tuple[int, ...]:
        return tuple(self.family.sample_inputs(self.params,
                                               derive_rng(*labels)))

    def expected_output(self, inputs: Sequence[int]) -> str:
        return self.family.reference(self.params, inputs)


def member_table() -> Dict[str, Member]:
    """Every family member by registry name (nothing compiled)."""
    return {family.member_name(p): Member(family.member_name(p), family, p)
            for family in FAMILY_REGISTRY.values() for p in family.grid}


def family_members() -> List[Member]:
    """Compile and register the family matrix, in registry order."""
    table = member_table()
    # The sources depend only on the parameters; the seed given here only
    # picks the registry's default inputs, which no workload uses.
    return [table[w.name] for w in family_matrix(seed=DEFAULT_SEED)]


def clear_process_caches() -> None:
    """Drop the process-wide caches so a repeated set-up starts cold."""
    clear_analysis_cache()
    clear_compile_cache()
    clear_replay_cache()
    DECODE_CACHE.clear()


def counts(seconds: float, per_second: float, minimum: int = 1) -> int:
    return max(minimum, int(math.ceil(seconds * per_second)))


def chunk_bounds(total: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous, near-equal ranges."""
    chunks = max(1, min(chunks, total))
    edges = [total * i // chunks for i in range(chunks + 1)]
    return [(edges[i], edges[i + 1]) for i in range(chunks)]


def input_key(name: str, inputs: Sequence[int], scheme: str,
              kind: str = "") -> str:
    key = "%s|%s|%s" % (name, ",".join(str(v) for v in inputs), scheme)
    return key + ("|" + kind if kind else "")


def bare_runs(executions: Sequence[Tuple[object, Sequence[int]]],
              config: CpuConfig) -> Tuple[BareRuns, List[int]]:
    """Time ``Cpu.run`` with no observer on each execution."""
    result = BareRuns()
    total_ns = instructions = 0
    times: List[int] = []
    for program, inputs in executions:
        cpu = Cpu(program, inputs=list(inputs), config=config)
        start = time.perf_counter_ns()
        outcome = cpu.run()
        elapsed = time.perf_counter_ns() - start
        times.append(elapsed)
        total_ns += elapsed
        instructions += outcome.instructions
        result.engine = cpu.engine_used or "-"
    result.runs = len(times)
    result.ns_per_instr = total_ns / instructions if instructions else 0.0
    return result, times


def reference_config() -> CpuConfig:
    """The CPU configuration golden replay runs with (no trace kept)."""
    return replace(CpuConfig(), collect_trace=False)


def capture_config() -> CpuConfig:
    """The configuration the campaign's capture stage runs with.

    Stage-1 capture picks the compiled engine where the configuration has an
    engine choice; where it has none, the default is what capture runs.
    """
    names = {f.name for f in dataclasses.fields(CpuConfig)}
    overrides = {"collect_trace": False}
    if "engine" in names:
        overrides["engine"] = "compiled"
    return replace(CpuConfig(), **overrides)


def repeated_setup(run: Run, repeats: int, setup: Callable,
                   host: HostSpeed):
    """Run ``setup`` ``repeats`` times from cold caches; keep the last state.

    Each repetition is timed on its own and scaled to the reference host
    speed; ``setup_s`` is their median.
    """
    state = None
    for index in range(repeats):
        if index:
            clear_process_caches()
            gc.collect()
        mark, started = host.mark(), host.clock()
        state = setup()
        run.setup_seconds.append((host.clock() - started)
                                 * host.factor(mark))
    return state


# ================================================================ cold_replay
@dataclass
class ColdState:
    members: List[Member]
    prover: Prover
    verifier: Verifier
    programs: Dict[str, object]


def _cold_setup(seed: int) -> ColdState:
    members = family_members()
    # Provisioned the way ``repro serve`` does it: registry build, register,
    # then the policy derived from the program's own analysis.
    programs = {m.name: get_workload(m.name).build() for m in members}
    prover = Prover(programs)
    verifier = Verifier()
    verifier.register_device_key(prover.device_id,
                                 prover.keystore.export_for_verifier())
    for name, program in programs.items():
        verifier.register_program(name, program)
        verifier.install_policy(name)
    for member in members:
        inputs = member.inputs(seed, "perfbench", "cold_replay", "warmup",
                               member.name)
        challenge = verifier.challenge(member.name, inputs)
        verdict = verifier.verify(prover.attest(challenge))
        if not verdict.accepted:
            raise SetupFailed("set-up round of %s rejected: %s"
                              % (member.name, verdict.reason.value))
    return ColdState(members, prover, verifier, programs)


def _cold_schedule(state: ColdState, seed: int, rounds: int):
    members = state.members
    schedule = []
    for index in range(rounds):
        member = members[index % len(members)]
        inputs = member.inputs(seed, "perfbench", "cold_replay", index)
        schedule.append((member, inputs, member.expected_output(inputs)))
    return schedule


def _cold_check(records, schedule, outcomes: Outcomes) -> None:
    for slot, report, cycles, verdict in records:
        member, inputs, expected = schedule[slot]
        key = input_key(member.name, inputs, "lofat")
        if report is None:
            outcomes.error(slot, key, "exception: %r" % (verdict,))
            continue
        reason = verdict.reason.value
        digest = report_digest(member.name, inputs, report.scheme,
                               report.measurement, report.metadata.to_bytes(),
                               report.exit_code, report.output, cycles, reason)
        outcomes.report(slot, key, digest, reason, "accepted",
                        report.output, expected)


def _cold_pass(state: ColdState, schedule, outcomes: Outcomes,
               host: HostSpeed) -> Phase:
    prover, verifier = state.prover, state.verifier
    phase = Phase()
    perf = host.clock
    for begin, end in chunk_bounds(len(schedule), CHUNKS):
        records, latencies = [], []
        mark, chunk_started = host.mark(), perf()
        for slot in range(begin, end):
            member, inputs, _ = schedule[slot]
            try:
                report = prover.attest(verifier.challenge(member.name, inputs))
                host.hold()
                try:
                    started = perf()
                    verdict = verifier.verify(report)
                    latencies.append((perf() - started) * 1e3)
                finally:
                    host.release()
                records.append((slot, report, prover.last_run.cycles, verdict))
            except Exception as error:  # noqa: BLE001 - counted as failed
                records.append((slot, None, 0, error))
        phase.add_chunk(perf() - chunk_started, end - begin, end - begin,
                        latencies, host.factor(mark))
        _cold_check(records, schedule, outcomes)
    return phase


def cold_replay(seed: int, seconds: float, tracing: Tracing,
                setup_repeats: int, host: HostSpeed) -> Run:
    run = Run()
    with tracing.phase("setup"):
        state = repeated_setup(run, setup_repeats, lambda: _cold_setup(seed),
                               host)
    schedule = _cold_schedule(state, seed,
                              counts(seconds, COLD_ROUNDS_PER_S, 28))
    run.phases["untraced"] = _cold_pass(state, schedule, run.outcomes, host)
    if tracing.enabled:
        with tracing.phase("timed"):
            run.phases["traced"] = _cold_pass(state, schedule, run.outcomes,
                                                host)
        executions = [(state.programs[m.name], inputs)
                      for m, inputs, _ in schedule]
        run.bare, times = bare_runs(executions, reference_config())
        run.bare.mean_reference_run_ns = sum(times) / len(times)
        traced_refs = sum(1 for span in tracing.tracer.phase_spans("timed")
                          if span[NAME] == "schemes.lofat.reference")
        run.outcomes.invariant(
            traced_refs == len(schedule),
            "reference_measurement ran %d times for %d reports"
            % (traced_refs, len(schedule)))
    return run


# ================================================================== warm_wire
@dataclass
class WireState:
    server: AttestationServer
    clients: List[AttestationClient]
    #: (name, inputs, scheme, expected output, simulated cycles)
    items: List[tuple]


async def _wire_setup(seed: int) -> WireState:
    members = family_members()
    working_set = [(m, m.inputs(seed, "perfbench", "warm_wire", m.name))
                   for m in members]
    store = TraceStore()
    spec = CampaignSpec(
        name="warm_wire_capture",
        workloads=[WorkloadSelection(name=m.name, input_sets=[list(inputs)])
                   for m, inputs in working_set],
        schemes=list(SCHEMES),
    )
    CampaignRunner(trace_store=store).capture(spec)
    items = []
    for member, inputs in working_set:
        capture = store.get(execution_signature(member.name, inputs))
        if capture is None:
            raise SetupFailed("no capture for %s" % member.name)
        for scheme in SCHEMES:
            items.append((member.name, inputs, scheme,
                          member.expected_output(inputs), capture.cycles))
    server = AttestationServer(trace_store=store)
    await server.start()
    clients = []
    for index in range(WIRE_CALLERS):
        device = "prover-%d" % index
        client = AttestationClient(
            port=server.port, device_id=device,
            prover=SimulatedProver(device_id=device, trace_store=store))
        await client.connect()
        clients.append(client)
    # Warm-up: every caller attests every item once, which fills the
    # server's database, the replay cache and each prover's plan memo.
    for client in clients:
        for name, inputs, scheme, _, _ in items:
            _, verdict = await client.attest_round(name, inputs, scheme)
            if not verdict.accepted:
                raise SetupFailed("set-up round %s/%s rejected: %s"
                                  % (name, scheme, verdict.reason))
    return WireState(server, clients, items)


async def _wire_teardown(state: WireState) -> None:
    for client in state.clients:
        await client.close()
    await state.server.stop()


def _wire_schedule(state: WireState, seed: int, slots: int, label: str):
    """(item index, resubmit) per slot; slot s belongs to caller s % 2."""
    rng = derive_rng(seed, "perfbench", "warm_wire", label)
    order: List[int] = []
    while len(order) < slots:
        cycle = list(range(len(state.items)))
        rng.shuffle(cycle)
        order.extend(cycle)
    return [(order[slot],
             (slot // WIRE_CALLERS) % RESUBMIT_EVERY == RESUBMIT_EVERY - 1)
            for slot in range(slots)]


async def _drive(client: AttestationClient, state: WireState, schedule,
                 slots: range, last: dict, records: list,
                 latencies: List[float], host: HostSpeed) -> None:
    """One caller's closed loop over its slots of one chunk."""
    perf = host.clock
    for slot in slots:
        if last.get("broken"):
            records.append((slot, None, None, None, "connection lost"))
            continue
        item_index, resubmit = schedule[slot]
        try:
            if resubmit:
                item_index, report = last["item"], last["report"]
            else:
                name, inputs, scheme, _, _ = state.items[item_index]
                challenge = await client.request_challenge(name, inputs,
                                                           scheme)
                report = client.prover.respond(challenge)
            host.hold()
            try:
                started = perf()
                verdict = await client.submit_report(report)
                latencies.append((perf() - started) * 1e3)
            finally:
                host.release()
        except Exception as error:  # noqa: BLE001 - counted as failed
            last["broken"] = True
            records.append((slot, None, None, None, repr(error)))
            continue
        if not resubmit:
            last["item"], last["report"] = item_index, report
        records.append((slot, item_index, resubmit, (report, verdict), None))


def _wire_check(state: WireState, schedule, records, slots: range,
                outcomes: Outcomes) -> None:
    seen = set()
    for slot, item_index, resubmit, answer, error in records:
        seen.add(slot)
        if answer is None:
            name, inputs, scheme = state.items[schedule[slot][0]][:3]
            outcomes.error(slot, input_key(name, inputs, scheme), error)
            continue
        report, verdict = answer
        name, inputs, scheme, expected, cycles = state.items[item_index]
        kind = "resubmit" if resubmit else ""
        digest = report_digest(name, inputs, report.scheme, report.measurement,
                               report.metadata.to_bytes(), report.exit_code,
                               report.output, cycles, verdict.reason)
        outcomes.report(slot, input_key(name, inputs, scheme, kind), digest,
                        verdict.reason,
                        "nonce_reused" if resubmit else "accepted",
                        report.output, expected)
    for slot in slots:
        if slot not in seen:
            name, inputs, scheme = state.items[schedule[slot][0]][:3]
            outcomes.error(slot, input_key(name, inputs, scheme), "timed out")


async def _wire_pass(state: WireState, schedule, outcomes: Outcomes,
                     host: HostSpeed) -> Phase:
    phase = Phase()
    lasts = [dict() for _ in state.clients]
    perf = host.clock
    deadline = time.perf_counter() + WIRE_PASS_TIMEOUT_S
    for begin, end in chunk_bounds(len(schedule), CHUNKS):
        records: list = []
        latencies: List[float] = []
        drivers = [
            _drive(client, state, schedule,
                   range(begin + (index - begin) % WIRE_CALLERS, end,
                         WIRE_CALLERS),
                   lasts[index], records, latencies, host)
            for index, client in enumerate(state.clients)]
        mark, started = host.mark(), perf()
        try:
            await asyncio.wait_for(asyncio.gather(*drivers),
                                   max(0.0, deadline - time.perf_counter()))
        except asyncio.TimeoutError:
            for last in lasts:
                last["broken"] = True
        elapsed = perf() - started
        fresh = sum(1 for slot in range(begin, end) if not schedule[slot][1])
        phase.add_chunk(elapsed, end - begin, fresh, latencies,
                        host.factor(mark))
        _wire_check(state, schedule, records, range(begin, end), outcomes)
    return phase


async def _server_counters(state: WireState) -> Tuple[int, int, int]:
    stats = await state.clients[0].server_stats()
    return (stats["database"]["hits"], stats["database"]["misses"],
            stats["session_pool"]["sessions_opened"])


async def _checked_wire_pass(state: WireState, schedule, run: Run,
                             name: str, tracing: Tracing,
                             host: HostSpeed) -> Tuple[int, int]:
    """A wire pass plus the server-side checks; returns (hits, lookups)."""
    replayed = [c.prover.replayed for c in state.clients]
    executed = [c.prover.executed for c in state.clients]
    with tracing.paused():
        before = await _server_counters(state)
    phase = await _wire_pass(state, schedule, run.outcomes, host)
    with tracing.paused():
        after = await _server_counters(state)
    run.phases[name] = phase
    hits, misses, sessions = (a - b for a, b in zip(after, before))
    fresh = sum(1 for _, resubmit in schedule if not resubmit)
    outcomes = run.outcomes
    outcomes.invariant(misses == 0, "%s: %d database misses" % (name, misses))
    outcomes.invariant(sessions == 0,
                       "%s: %d references computed" % (name, sessions))
    outcomes.invariant(
        sum(c.prover.executed for c in state.clients) == sum(executed),
        "%s: a prover executed live instead of replaying" % name)
    outcomes.invariant(
        sum(c.prover.replayed for c in state.clients) - sum(replayed) == fresh,
        "%s: not every fresh report was a prover replay" % name)
    return hits, hits + misses


async def _warm_wire(seed: int, seconds: float, tracing: Tracing,
                     setup_repeats: int, host: HostSpeed) -> Run:
    run = Run(wire=True)
    state: Optional[WireState] = None
    with tracing.phase("setup"):
        for index in range(setup_repeats):
            if state is not None:
                await _wire_teardown(state)
                clear_process_caches()
                gc.collect()
            mark, started = host.mark(), host.clock()
            state = await _wire_setup(seed)
            run.setup_seconds.append((host.clock() - started)
                                     * host.factor(mark))
    assert state is not None
    try:
        schedule = _wire_schedule(state, seed,
                                  counts(seconds, WIRE_SLOTS_PER_S, 64),
                                  "timed")
        await _checked_wire_pass(state, schedule, run, "untraced", tracing,
                                 host)
        if tracing.enabled:
            with tracing.phase("timed"):
                hits, lookups = await _checked_wire_pass(
                    state, schedule, run, "traced", tracing, host)
            run.hit_ratio = hits / lookups if lookups else 0.0
            run.retained_kb_per_1k = await _retention(state, seed, run,
                                                      tracing, host)
            executions = [(get_workload(name).build(), inputs)
                          for name, inputs, scheme, _, _ in state.items
                          if scheme == SCHEMES[0]]
            run.bare, _ = bare_runs(executions * 3, reference_config())
    finally:
        await _wire_teardown(state)
    return run


async def _retention(state: WireState, seed: int, run: Run,
                     tracing: Tracing, host: HostSpeed) -> float:
    """KB the program still holds per 1000 reports after a pass.

    Only allocations made by the program's own code (``src/repro``) count,
    so the benchmark's records of the pass do not.
    """
    schedule = _wire_schedule(state, seed, RETENTION_SLOTS, "retention")
    program_files = (tracemalloc.Filter(True, os.path.join(
        os.path.dirname(repro.__file__), "*")),)

    def held() -> int:
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(program_files)
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        before = held()
        await _checked_wire_pass(state, schedule, run, "retention", tracing,
                                 host)
        after = held()
    finally:
        tracemalloc.stop()
    return (after - before) / 1024.0 / (len(schedule) / 1000.0)


def warm_wire(seed: int, seconds: float, tracing: Tracing,
              setup_repeats: int, host: HostSpeed) -> Run:
    return asyncio.run(_warm_wire(seed, seconds, tracing, setup_repeats,
                                  host))


# =================================================================== campaign
@dataclass
class CampaignState:
    specs: List[CampaignSpec]
    #: (workload, inputs) -> expected output, for benign jobs.
    expected: Dict[Tuple[str, Tuple[int, ...]], str]


class _VerifyTimer:
    """Times every ``Verifier.verify`` call (the campaign's verify latency)."""

    def __init__(self, latencies: List[float], host: HostSpeed) -> None:
        self.latencies = latencies
        self.host = host
        self.original = None

    def __enter__(self):
        original = self.original = Verifier.__dict__["verify"]
        latencies, host = self.latencies, self.host

        def verify(*args, **kwargs):
            host.hold()
            started = host.clock()
            try:
                return original(*args, **kwargs)
            finally:
                latencies.append((host.clock() - started) * 1e3)
                host.release()

        Verifier.verify = verify
        return self

    def __exit__(self, *exc_info) -> None:
        Verifier.verify = self.original


def _campaign_iteration(specs: Sequence[CampaignSpec], phase: Phase,
                        host: HostSpeed):
    """One cold campaign: fresh runner, trace store, replay and plan caches."""
    clear_replay_cache()
    clear_compile_cache()
    runner = CampaignRunner()
    latencies: List[float] = []
    with _VerifyTimer(latencies, host):
        mark, started = host.mark(), host.clock()
        results = [runner.run(spec) for spec in specs]
        elapsed = host.clock() - started
    jobs = sum(len(result) for result in results)
    phase.add_chunk(elapsed, jobs, jobs, latencies, host.factor(mark))
    return results


def _campaign_setup(seed: int, host: HostSpeed) -> CampaignState:
    members = member_table()
    specs = [family_campaign(seed=seed, input_sets=CAMPAIGN_INPUT_SETS,
                             repeats=CAMPAIGN_REPEATS),
             full_campaign()]
    expected: Dict[Tuple[str, Tuple[int, ...]], str] = {}
    for spec in specs:
        for job in spec.expand():
            if job.attack is not None:
                continue
            key = (job.workload, tuple(job.inputs))
            member = members.get(job.workload)
            if member is not None:
                expected[key] = member.expected_output(job.inputs)
                continue
            workload = get_workload(job.workload)
            if (workload.expected_output is not None
                    and tuple(workload.inputs) == key[1]):
                expected[key] = workload.expected_output
    results = _campaign_iteration(specs, Phase(), host)
    for result in results:
        if not result.ok:
            raise SetupFailed("set-up campaign %s: %d jobs misbehaved"
                              % (result.spec_name, len(result.failures)))
    return CampaignState(specs, expected)


def _campaign_pass(state: CampaignState, iterations: int, outcomes: Outcomes,
                   host: HostSpeed) -> Tuple[Phase, Dict[str, float]]:
    """Run the iterations and check them; returns the phase and the
    ``service.campaign.*`` / ``service.tracestore.*`` layer values."""
    phase = Phase()
    per_iteration = [_campaign_iteration(state.specs, phase, host)
                     for _ in range(iterations)]
    slot = 0
    tables = []
    for results in per_iteration:
        table = {}
        for result in results:
            outcomes.invariant(result.ok, "campaign %s: %d jobs misbehaved"
                               % (result.spec_name, len(result.failures)))
            for job_result in result.results:
                job = job_result.job
                # Repeats of a job must agree, so they share one key.
                key = "%s|%s" % (result.spec_name,
                                 job.job_id.rsplit("/r", 1)[0])
                if job.attack is None:
                    wanted = "benign_pass"
                elif job.expects_detection:
                    wanted = "detected"
                else:
                    wanted = "expected_miss"
                digest = report_digest(
                    job.workload, job.inputs, job.scheme,
                    bytes.fromhex(job_result.measurement_hex),
                    bytes.fromhex(job_result.metadata_hex),
                    job_result.exit_code, job_result.output,
                    job_result.cycles, job_result.reason)
                expected = (state.expected.get((job.workload, tuple(job.inputs)))
                            if job.attack is None else None)
                outcomes.report(slot, key, digest, job_result.outcome, wanted,
                                job_result.output, expected)
                table.setdefault(key, set()).add(digest)
                slot += 1
        tables.append(table)
    outcomes.invariant(
        all(table == tables[0] for table in tables)
        and all(len(digests) == 1 for digests in tables[0].values()),
        "campaign repeats or iterations produced different results")
    jobs = sum(len(r) for results in per_iteration for r in results)
    deduped = sum(r.capture_stats.get("deduped_jobs", 0)
                  for results in per_iteration for r in results)
    layers = {
        "service.campaign.capture_s": statistics.median(
            sum(r.capture_seconds for r in results)
            for results in per_iteration),
        "service.campaign.attest_s": statistics.median(
            sum(r.attest_seconds for r in results)
            for results in per_iteration),
        "service.campaign.verify_s": statistics.median(
            sum(r.verify_seconds for r in results)
            for results in per_iteration),
        "service.tracestore.dedup_ratio": deduped / jobs if jobs else 0.0,
    }
    return phase, layers


def campaign(seed: int, seconds: float, tracing: Tracing,
             setup_repeats: int, host: HostSpeed) -> Run:
    run = Run()
    with tracing.phase("setup"):
        state = repeated_setup(run, setup_repeats,
                               lambda: _campaign_setup(seed, host), host)
    iterations = counts(seconds, CAMPAIGN_ITERATIONS_PER_S)
    # The per-stage times come from the untraced pass.
    run.phases["untraced"], run.campaign_layers = _campaign_pass(
        state, iterations, run.outcomes, host)
    if tracing.enabled:
        with tracing.phase("timed"):
            run.phases["traced"], _ = _campaign_pass(
                state, iterations, run.outcomes, host)
        executions = sorted(state.expected)
        programs = {name: get_workload(name).build()
                    for name, _ in executions}
        run.bare, _ = bare_runs(
            [(programs[name], inputs) for name, inputs in executions],
            capture_config())
    return run


WORKLOADS: Dict[str, Callable[..., Run]] = {
    "cold_replay": cold_replay,
    "warm_wire": warm_wire,
    "campaign": campaign,
}
