"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_replay --seed 20170618 \\
        --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics, scaled to the reference host
speed (:mod:`perfbench.hostspeed`); ``--trace 1`` prints the per-layer
metrics together with the span ledger (the spans themselves go to
``.perfbench-out/``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every output check passed, 1 when one failed (the first
problem is named on standard error) and 2 when the program's sources are
not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, ROOT)

from perfbench.checks import DEFAULT_SEED  # noqa: E402 - needs ROOT on the path

WORKLOAD_NAMES = ("cold_replay", "warm_wire", "campaign")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="sizes the fixed schedule (about this long)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="record this run's report digests as the "
                             "expected ones (default seed only)")
    return parser.parse_args(argv)


def percentile(values, share: float) -> float:
    """The order statistic at ``share`` (nearest rank)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def end_to_end(run) -> dict:
    phase = run.phases["untraced"]
    latencies = phase.latencies_ms
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "reports_per_s": (phase.reports_per_s(), "1/s"),
        "jobs_per_s": (phase.jobs_per_s(), "1/s"),
        "verify_p50_ms": (percentile(latencies, 0.50), "ms"),
        "verify_p99_ms": (percentile(latencies, 0.99), "ms"),
        "setup_s": (statistics.median(run.setup_seconds), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCES, "repro", "__init__.py")):
        print("error: the program's sources (src/repro) are not in %s"
              % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCES)

    from perfbench import checks, layers
    from perfbench.hostspeed import REFERENCE_NS, HostSpeed
    from perfbench.workloads import WORKLOADS, SetupFailed

    trace = bool(args.trace)
    # An untraced run sets up three times (``setup_s`` is the median) and
    # probes the host speed; a traced run sets up once and measures a
    # schedule of half the length twice: untraced (the overhead baseline),
    # then traced.
    repeats = 1 if trace else 3
    tracing = layers.Tracing(enabled=trace)
    seconds = args.seconds / 2 if trace else args.seconds
    host = HostSpeed()
    if not trace:
        host.start()
    try:
        run = WORKLOADS[args.workload](args.seed, seconds, tracing, repeats,
                                       host)
    except SetupFailed as error:
        print("error: set-up failed: %s" % error, file=sys.stderr)
        return 1
    finally:
        host.stop()
    outcomes = run.outcomes
    checks.check_digests(args.workload, args.seed, outcomes,
                         record=args.record_digests)

    if trace:
        values = layers.per_layer_metrics(run, tracing)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: (values[name], units[name]) for name in units}
        print(layers.ledger_text(run, tracing, values))
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
        spans_path, ledger_path = stem + ".spans.jsonl.gz", stem + ".ledger.json"
        tracing.tracer.write(spans_path)
        with open(ledger_path, "w", encoding="utf-8") as handle:
            json.dump(layers.ledger_document(run, tracing), handle, indent=1)
        print("spans: %d written to %s (ledger: %s)" % (
            len(tracing.tracer.spans), os.path.relpath(spans_path, ROOT),
            os.path.relpath(ledger_path, ROOT)))
    else:
        metrics = end_to_end(run)
    print("%s: seed %d, %d reports, %d failed, run digest %s" % (
        args.workload, args.seed, outcomes.attempted, outcomes.failed,
        outcomes.run_digest()))
    if host.samples:
        phase = run.phases["untraced"]
        print("host speed: %d probes, mean %.1f us (reference %.1f us); "
              "timed phase %.3f s as measured" % (
                  len(host.samples), sum(host.samples) / len(host.samples)
                  / 1e3, REFERENCE_NS / 1e3, phase.seconds))
    for problem in outcomes.problems:
        print("problem: %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if outcomes.correct else 1


if __name__ == "__main__":
    sys.exit(main())
