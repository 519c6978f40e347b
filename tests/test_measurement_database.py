"""Tests for verifying against references from the measurement database."""

import pytest

from repro.attestation import Prover, Verifier
from repro.service import MeasurementDatabase
from repro.workloads import get_workload


@pytest.fixture
def setup():
    workload = get_workload("figure4_loop")
    program = workload.build()
    prover = Prover({workload.name: program})
    verifier = Verifier()
    verifier.register_program(workload.name, program)
    verifier.register_device_key("prover-0", prover.keystore.export_for_verifier())
    return workload, program, prover, verifier


class TestMeasurementDatabase:
    def test_precompute_matches_prover_report(self, setup):
        workload, program, prover, verifier = setup
        expected_a, expected_l, _ = MeasurementDatabase().lookup_or_compute(
            program, (5,))
        report = prover.attest(verifier.challenge(workload.name, [5]))
        assert report.measurement == expected_a
        assert report.metadata.to_bytes() == expected_l

    def test_database_reference_rejects_other_input(self, setup):
        workload, program, prover, verifier = setup
        expected_a, expected_l, _ = MeasurementDatabase().lookup_or_compute(
            program, (5,))
        # Attest a different input against the reference for input 5.
        report = prover.attest(verifier.challenge(workload.name, [6]))
        verdict = verifier.verify(report, reference=(expected_a, expected_l))
        assert not verdict.accepted
