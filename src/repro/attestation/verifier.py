"""The verifier.

Per the protocol (paper §3), the verifier:

1. performs a one-time offline analysis of the program (CFG + loop
   information),
2. issues challenges containing the program input ``i``, a fresh nonce and
   the attestation scheme the prover must answer with,
3. on receiving the report, checks the signature, the nonce and that the
   report's scheme matches the challenged one (fail closed on mismatch), and
4. checks that the reported path ``P = (A, L)`` corresponds to a valid
   execution of the program's CFG under input ``i``.

Every report goes through one ordered pipeline.  :meth:`Verifier.admit`
runs the checks that need no reference: known program, outstanding nonce,
program and scheme binding, device signature, then (after consuming the
nonce) the structural CFG checks on ``L`` -- every reported loop entry must
be the target of a backward edge and iteration counts must be consistent;
schemes without loop metadata pass vacuously.  An installed
:class:`repro.dataflow.policy.StaticPolicy` additionally rejects loop
records outside the statically *proven* loop forest or trip-count intervals
with ``POLICY_VIOLATION``, so an infeasible report costs no replay.

:meth:`Verifier.verify` is :meth:`~Verifier.admit` followed by the
challenged scheme's comparison of ``(A, L)`` against one reference.  The
reference is either supplied by the caller as data -- an ``(A, serialized
L)`` pair, typically from :class:`repro.service.MeasurementDatabase`, the
one reference store -- or, by default, computed by golden replay: the
verifier, who owns the program binary and chose the input, re-measures the
program through the scheme's own :meth:`reference_measurement`
(known-input attestation, as C-FLAT/LO-FAT verifiers are evaluated).
The offline analysis itself is shared with every other static consumer
through :func:`repro.dataflow.analyze_program`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from repro.attestation.crypto import fresh_nonce, verify_signature
from repro.attestation.protocol import AttestationChallenge, AttestationReport
from repro.cpu.core import CpuConfig
from repro.dataflow.policy import StaticPolicy
from repro.dataflow.program import (
    ProgramAnalysis,
    analyze_program,
    clear_analysis_cache,
)
from repro.isa.assembler import Program
from repro.lofat.config import LoFatConfig
from repro.lofat.metadata import LoopMetadata
from repro.schemes import get_scheme
# Re-exported for backward compatibility: these historically lived here.
from repro.schemes.base import VerdictReason, VerificationResult  # noqa: F401

#: Historical name for the verifier's offline program analysis.  The class
#: moved to ``repro.dataflow.program`` (where the dataflow passes live) and
#: grew lazy interval/loop-bound/liveness passes; the attribute surface the
#: verifier relies on (``program``, ``cfg``, ``loops``, ``path_checker``,
#: ``backward_edge_targets``, ``instruction_addresses``) is unchanged.
ProgramKnowledge = ProgramAnalysis

#: Growth bound for a verifier's memoised structural verdicts: benign
#: metadata repeats, attack metadata is mostly distinct, so the cache is
#: cleared wholesale when a flood of distinct L values fills it.
_STRUCTURAL_CACHE_MAX = 4096


def clear_knowledge_cache() -> None:
    """Drop all cached offline analyses (used by tests and benchmarks)."""
    clear_analysis_cache()


class Verifier:
    """The remote verifier V (scheme-agnostic)."""

    def __init__(
        self,
        lofat_config: Optional[LoFatConfig] = None,
        cpu_config: Optional[CpuConfig] = None,
    ) -> None:
        self.lofat_config = lofat_config or LoFatConfig()
        self.cpu_config = cpu_config
        #: Per-scheme configurations the verifier replays references with;
        #: the historical ``lofat_config`` argument seeds the ``lofat`` entry.
        self._scheme_configs: Dict[str, object] = {"lofat": self.lofat_config}
        self._programs: Dict[str, ProgramKnowledge] = {}
        self._verification_keys: Dict[str, bytes] = {}
        self._outstanding_nonces: Dict[bytes, AttestationChallenge] = {}
        self._used_nonces: set = set()
        #: Memoised structural verdicts keyed by (program_id, serialized L).
        #: A standing verifier sees the same benign metadata thousands of
        #: times; the CFG checks are pure in the program analysis, the
        #: installed policy and the metadata bytes, so each distinct L is
        #: checked once (the cache is cleared when a policy is installed or
        #: a program id is re-registered under another binary).
        self._structural_cache: Dict[Tuple[str, bytes], VerificationResult] = {}
        #: Per-program StaticPolicy artifacts enforced before replay/lookup.
        self._policies: Dict[str, StaticPolicy] = {}

    # ------------------------------------------------------- provisioning
    def register_program(self, program_id: str, program: Program) -> ProgramKnowledge:
        """Offline pre-processing: build and store the program's analysis.

        Delegates to the shared :func:`repro.dataflow.analyze_program` entry
        point, which caches one analysis per program digest process-wide, so
        registering the same binary again (under any id, on any Verifier
        instance) is an O(lookup) operation and the dataflow passes are
        computed at most once per binary.

        Re-registering ``program_id`` under a different binary drops the
        policy installed for the old image and the memoised structural
        verdicts: facts proven about one image say nothing about another.
        """
        knowledge = analyze_program(program)
        previous = self._programs.get(program_id)
        if (previous is not None
                and previous.program.digest != knowledge.program.digest):
            self._policies.pop(program_id, None)
            self._structural_cache.clear()
        self._programs[program_id] = knowledge
        return knowledge

    def install_policy(
        self, program_id: str, policy: Optional[StaticPolicy] = None
    ) -> StaticPolicy:
        """Enforce a :class:`StaticPolicy` on ``program_id``'s reports.

        With ``policy=None`` the policy is derived from the registered
        program's own analysis (the common case); passing an explicit policy
        supports artifacts shipped from another process via the measurement
        database.  A policy whose ``program_digest`` disagrees with the
        registered binary is rejected — enforcing facts proven about a
        different image would be unsound in both directions.
        """
        knowledge = self._programs.get(program_id)
        if knowledge is None:
            raise KeyError("program %r is not registered" % program_id)
        if policy is None:
            policy = knowledge.policy
        elif policy.program_digest != knowledge.program.digest:
            raise ValueError(
                "policy digest %s does not match program %r (digest %s)"
                % (policy.program_digest, program_id, knowledge.program.digest)
            )
        self._policies[program_id] = policy
        # Memoised structural verdicts were computed under the old policy.
        self._structural_cache.clear()
        return policy

    def installed_policy(self, program_id: str) -> Optional[StaticPolicy]:
        """The policy currently enforced for ``program_id``, if any."""
        return self._policies.get(program_id)

    def register_device_key(self, device_id: str, verification_key: bytes) -> None:
        """Provision the verification key of a prover device."""
        self._verification_keys[device_id] = verification_key

    def clear_device_keys(self) -> None:
        """Drop all provisioned device keys (fail closed until re-provisioned).

        The attestation server bounds its wire-provisioned device table
        with this; reports from a dropped device are rejected with
        ``BAD_SIGNATURE`` until its key is registered again.
        """
        self._verification_keys.clear()

    def configure_scheme(self, scheme: str, config=None) -> None:
        """Provision the configuration used when replaying ``scheme`` references."""
        backend = get_scheme(scheme)
        if config is None or isinstance(config, dict):
            config = backend.configure(config or {})
        self._scheme_configs[scheme] = config
        if scheme == "lofat":
            self.lofat_config = config

    def scheme_config(self, scheme: str):
        """The configuration this verifier replays ``scheme`` references with."""
        config = self._scheme_configs.get(scheme)
        if config is None:
            config = get_scheme(scheme).default_config()
            self._scheme_configs[scheme] = config
        return config

    # ----------------------------------------------------------- protocol
    def challenge(
        self, program_id: str, inputs: Sequence[int], scheme: str = "lofat"
    ) -> AttestationChallenge:
        """Create a fresh challenge for ``program_id`` with input ``inputs``.

        ``scheme`` names the attestation backend the prover must answer with
        (resolved against the registry so typos fail here, not at verify
        time).
        """
        if program_id not in self._programs:
            raise KeyError("program %r is not registered" % program_id)
        get_scheme(scheme)  # fail fast on unknown schemes
        nonce = fresh_nonce()
        challenge = AttestationChallenge(
            program_id=program_id, inputs=tuple(inputs), nonce=nonce,
            scheme=scheme,
        )
        self._outstanding_nonces[nonce] = challenge
        return challenge

    def outstanding_challenge(
        self, nonce: bytes
    ) -> Optional[AttestationChallenge]:
        """The challenge an unanswered ``nonce`` belongs to, or None.

        The attestation server uses this to tell whether verifying a report
        consumed its nonce without reaching into the nonce table; it does
        not consume the nonce.
        """
        return self._outstanding_nonces.get(nonce)

    def discard_challenge(self, nonce: bytes) -> bool:
        """Withdraw an outstanding challenge (fail closed).

        Connection-oriented verifiers call this when a prover disconnects
        with challenges unanswered: the nonce is moved to the used set, so a
        report answering it later is rejected as ``NONCE_REUSED`` rather
        than lingering verifiable forever.  Returns True when a challenge
        was actually withdrawn.
        """
        challenge = self._outstanding_nonces.pop(nonce, None)
        if challenge is None:
            return False
        self._used_nonces.add(nonce)
        return True

    def admit(
        self, report: AttestationReport, device_id: str = "prover-0"
    ) -> Union[AttestationChallenge, VerificationResult]:
        """Run every check that needs no reference measurement.

        In order: known program, outstanding (or already used) nonce,
        program and scheme binding, known scheme, device signature; then the
        nonce is consumed and ``L`` is checked against the CFG and the
        installed policy (memoised per distinct ``L``).  Returns the
        consumed challenge when the report is admitted, otherwise the
        rejecting :class:`VerificationResult`.  Only an admitted report is
        worth a reference lookup or replay.
        """
        if report.program_id not in self._programs:
            return VerificationResult(False, VerdictReason.UNKNOWN_PROGRAM)

        challenge = self._outstanding_nonces.get(report.nonce)
        if challenge is None:
            reason = (
                VerdictReason.NONCE_REUSED
                if report.nonce in self._used_nonces
                else VerdictReason.UNKNOWN_NONCE
            )
            return VerificationResult(False, reason)

        # Fail closed on binding disagreements before any measurement
        # comparison: the report must answer for the challenged program (the
        # program id is not covered by the signature, so a compromised
        # prover could otherwise answer a challenge on A with a valid run of
        # B) and under the challenged scheme; a report naming a scheme this
        # verifier does not know is rejected too.
        if report.program_id != challenge.program_id:
            return VerificationResult(
                False, VerdictReason.PROGRAM_MISMATCH,
                "challenged program %r but report answers for %r"
                % (challenge.program_id, report.program_id),
            )
        if report.scheme != challenge.scheme:
            return VerificationResult(
                False, VerdictReason.SCHEME_MISMATCH,
                "challenged scheme %r but report carries %r"
                % (challenge.scheme, report.scheme),
            )
        try:
            get_scheme(report.scheme)
        except KeyError:
            return VerificationResult(
                False, VerdictReason.SCHEME_MISMATCH,
                "report names unknown scheme %r" % report.scheme,
            )

        key = self._verification_keys.get(device_id)
        if key is None or not verify_signature(
            report.payload, report.nonce, report.signature, key
        ):
            return VerificationResult(False, VerdictReason.BAD_SIGNATURE)

        # The nonce is consumed whether or not the path checks pass: replaying
        # the same report later must be rejected as stale.
        del self._outstanding_nonces[report.nonce]
        self._used_nonces.add(report.nonce)

        cache_key = (report.program_id, report.metadata.to_bytes())
        structural = self._structural_cache.get(cache_key)
        if structural is None:
            structural = self._check_metadata_structure(
                report.program_id, report.metadata)
            if len(self._structural_cache) >= _STRUCTURAL_CACHE_MAX:
                self._structural_cache.clear()
            self._structural_cache[cache_key] = structural
        if not structural.accepted:
            return structural
        return challenge

    def verify(
        self,
        report: AttestationReport,
        device_id: str = "prover-0",
        reference: Optional[Tuple[bytes, bytes]] = None,
    ) -> VerificationResult:
        """Check an attestation report: :meth:`admit`, then compare.

        ``reference`` is the expected ``(A, serialized L)`` for the
        challenged execution (e.g. from a
        :class:`repro.service.MeasurementDatabase`); when omitted, it is
        computed by golden replay of the challenged input.
        """
        admission = self.admit(report, device_id)
        if isinstance(admission, VerificationResult):
            return admission
        if reference is None:
            measured = self._reference_measurement(
                report.program_id, admission.inputs, report.scheme)
            reference = (measured.measurement, measured.metadata.to_bytes())
        return get_scheme(report.scheme).verify(report, reference)

    # -------------------------------------------------------------- internals
    def _reference_measurement(
        self, program_id: str, inputs: Sequence[int], scheme: str = "lofat"
    ):
        """Re-measure the program through the scheme's trusted reference.

        For execution-dependent schemes this replays the program in the
        verifier's simulator, streaming records straight into a fresh session
        (no trace accumulation); repeat replays of the same binary reuse the
        decoded-instruction cache.  Returns a
        :class:`repro.schemes.SchemeMeasurement`.
        """
        knowledge = self._programs[program_id]
        backend = get_scheme(scheme)
        return backend.reference_measurement(
            knowledge.program,
            inputs,
            config=self.scheme_config(scheme),
            cpu_config=self.cpu_config,
        )

    def _check_metadata_structure(
        self, program_id: str, metadata: LoopMetadata
    ) -> VerificationResult:
        """Validate the loop metadata against the static CFG and policy.

        Schemes that report no loop metadata (C-FLAT as modelled here,
        static attestation) pass vacuously.  When a :class:`StaticPolicy`
        is installed for the program, each loop record is additionally
        screened against the proven loop-entry set and trip-count
        intervals — rejecting infeasible reports here costs a few set
        lookups instead of a full golden replay.
        """
        knowledge = self._programs[program_id]
        instruction_addresses = knowledge.instruction_addresses
        policy = self._policies.get(program_id)
        try:
            records = list(metadata)
        except ValueError as error:
            # Lazily deserialised metadata surfaces parse failures here;
            # fail closed exactly like any other malformed L.
            return VerificationResult(
                False, VerdictReason.METADATA_CFG_VIOLATION,
                "loop metadata does not deserialise: %s" % error,
            )
        for record in records:
            if policy is not None:
                detail = policy.check_loop_record(record.entry, record.iterations)
                if detail is not None:
                    return VerificationResult(
                        False, VerdictReason.POLICY_VIOLATION, detail
                    )
            if record.entry not in instruction_addresses:
                return VerificationResult(
                    False, VerdictReason.METADATA_CFG_VIOLATION,
                    "loop entry %#x is not a program address" % record.entry,
                )
            if record.entry not in knowledge.backward_edge_targets:
                return VerificationResult(
                    False, VerdictReason.METADATA_CFG_VIOLATION,
                    "loop entry %#x is not the target of any backward edge"
                    % record.entry,
                )
            if record.iterations < len(record.paths):
                return VerificationResult(
                    False, VerdictReason.METADATA_CFG_VIOLATION,
                    "loop at %#x reports fewer iterations than distinct paths"
                    % record.entry,
                )
            iteration_sum = sum(path.iterations for path in record.paths)
            if iteration_sum != record.iterations:
                return VerificationResult(
                    False, VerdictReason.METADATA_CFG_VIOLATION,
                    "loop at %#x iteration counts are inconsistent" % record.entry,
                )
        return VerificationResult(True, VerdictReason.ACCEPTED)
