"""Output checks shared by the workloads: verdicts, outputs and digests.

Every report a workload produces is passed to :meth:`Outcomes.report`
with the verdict it must get.  Each report also gets a digest over the
fields that the program computes deterministically from its inputs --
program, inputs, scheme, measurement ``A``, serialized ``L``, exit code,
output, simulated cycles and verdict reason.  Nonces, signatures and
timings are left out: nonces come from ``os.urandom``.

For the default seed the digests are compared with the values recorded in
``perfbench/expected/<workload>.json`` (refresh them with
``run.py --record-digests`` after an intended change of program output).
The table is keyed by a stable description of each report, so any run
length can be checked against it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

#: The project-wide default seed (``repro.adversary.seeds``).
DEFAULT_SEED = 20170618

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")

#: How many problem messages a run keeps for its error output.
MAX_PROBLEMS = 20


def report_digest(program: str, inputs: Sequence[int], scheme: str,
                  measurement: bytes, metadata: bytes, exit_code: int,
                  output: str, cycles: int, reason: str) -> str:
    """Digest of one report's deterministic fields (16 hex digits)."""
    canonical = json.dumps([
        program, [int(v) for v in inputs], scheme, measurement.hex(),
        metadata.hex(), int(exit_code), output, int(cycles), reason,
    ], separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class Outcomes:
    """Attempted/failed counts, problems and digests of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: (slot, key, digest) in the order reports were produced.
        self.digests: List[tuple] = []

    def _problem(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def report(self, slot: int, key: str, digest: str, reason: str,
               expected_reason: str, output: Optional[str] = None,
               expected_output: Optional[str] = None) -> bool:
        """Count one delivered verdict; True when it is the expected one."""
        self.attempted += 1
        self.digests.append((slot, key, digest))
        problem = None
        if reason != expected_reason:
            problem = "verdict %r, expected %r" % (reason, expected_reason)
        elif expected_output is not None and output != expected_output:
            problem = "output %r, reference model gives %r" % (
                output, expected_output)
        if problem is None:
            return True
        self.failed += 1
        self._problem("report %d (%s): %s" % (slot, key, problem))
        return False

    def error(self, slot: int, key: str, message: str) -> None:
        """Count a report that got no verdict (exception, ERROR frame, ...)."""
        self.attempted += 1
        self.failed += 1
        self._problem("report %d (%s): %s" % (slot, key, message))

    def invariant(self, holds: bool, message: str) -> None:
        """Record a run-level check (counts no report)."""
        if not holds:
            self.failed += 1
            self._problem(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def run_digest(self) -> str:
        """One digest over every report digest, in slot order."""
        hasher = hashlib.sha256()
        for slot, key, digest in sorted(self.digests):
            hasher.update(("%d:%s:%s;" % (slot, key, digest)).encode("utf-8"))
        return hasher.hexdigest()[:16]

    def table(self) -> Dict[str, str]:
        """``key -> digest`` for recording (keys repeat with equal digests)."""
        return {key: digest for _, key, digest in self.digests}

    def first_mismatch(self, expected: Dict[str, str]) -> Optional[str]:
        """Name the first report whose digest differs from ``expected``."""
        for slot, key, digest in sorted(self.digests):
            recorded = expected.get(key)
            if recorded is not None and recorded != digest:
                return ("report %d (%s): digest %s differs from the value "
                        "%s recorded for seed %d"
                        % (slot, key, digest, recorded, DEFAULT_SEED))
        return None


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, "%s.json" % workload)


def load_expected(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The recorded digest table, or None when none applies to ``seed``."""
    if seed != DEFAULT_SEED:
        return None
    try:
        with open(expected_path(workload), encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return None
    return document["digests"]


def record_expected(workload: str, outcomes: Outcomes) -> str:
    """Write this run's digest table as the recorded one; returns the path."""
    path = expected_path(workload)
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    document = {"workload": workload, "seed": DEFAULT_SEED,
                "digests": dict(sorted(outcomes.table().items()))}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0, sort_keys=False)
        handle.write("\n")
    return path


def check_digests(workload: str, seed: int, outcomes: Outcomes,
                  record: bool = False) -> Optional[str]:
    """Compare (or record) the digests; returns a mismatch message or None."""
    if record:
        if seed != DEFAULT_SEED:
            raise SystemExit("--record-digests needs the default seed %d"
                             % DEFAULT_SEED)
        if not outcomes.correct:
            raise SystemExit("refusing to record digests of a failing run")
        record_expected(workload, outcomes)
        return None
    expected = load_expected(workload, seed)
    if expected is None:
        return None
    mismatch = outcomes.first_mismatch(expected)
    if mismatch is not None:
        outcomes.invariant(False, mismatch)
    return mismatch
