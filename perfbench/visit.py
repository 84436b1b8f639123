"""``visit``: one patient at a time through ``MedSenSession.run_diagnostic``.

The paper's diagnostic path on the default plain deployment with no
observer: device simulation, relay encoding with zlib, cloud peak
detection, controller decryption, classification, authentication and
storage.  No fleet, stream or envelope code runs.

Inputs from the seed: eight enrolled patients holding the eight
passwords of ``inputs.passwords`` in a seeded order, their CD4 stage
baselines cycling through 700, 450, 300 and 150 cells/uL, each visit
drawn within +-10 % of the baseline.  A round is one 60-s visit per
patient.  Every password is in every round, so the bead load of a
round, which sets much of its cost, does not depend on the seed.
"""

from time import perf_counter

import numpy as np

from harness import RSS_ROUNDS, Op, repeat_setup, sequential_rounds
from repro import MedSenSession
from repro.auth.authenticator import ServerAuthenticator
from repro.auth.classifier import ParticleClassifier
from repro.cloud.server import AnalysisServer
from repro.cloud.storage import RecordStore
from repro.core.device import MedSenDevice
from repro.crypto.encryptor import SignalEncryptor
from repro.dsp.peakdetect import PeakDetector
from repro.dsp.recording import CsvRecordingModel
from repro.hardware.acquisition import AcquisitionFrontEnd
from repro.microfluidics.transport import TransportModel
from repro.mobile import phone
from repro.serving.request import derive_request_rng
from repro.serving.workload import ClinicWorkload
from tests._dsp_oracle import explain_report_mismatch, staged_detect

import inputs

CAPTURE_S = 60.0
N_PATIENTS = 8

#: (owner, attribute, span name); per-layer metric = span name + "_s".
LAYERS = (
    (MedSenSession, "run_diagnostic", "core.session"),
    (MedSenDevice, "run_capture", "device.capture"),
    (TransportModel, "schedule_arrivals", "microfluidics.arrivals"),
    (SignalEncryptor, "events_for_arrivals", "crypto.encrypt_events"),
    (AcquisitionFrontEnd, "acquire", "hardware.acquire"),
    (CsvRecordingModel, "encode", "dsp.recording.encode"),
    (phone, "compressed_size_bytes", "dsp.recording.compress"),
    (AnalysisServer, "analyze", "cloud.analyze"),
    (PeakDetector, "detect", "dsp.detect"),
    (MedSenDevice, "decrypt", "crypto.decrypt"),
    (ParticleClassifier, "classify", "auth.classify"),
    (ServerAuthenticator, "authenticate", "auth.authenticate"),
    (RecordStore, "store", "cloud.store"),
)


class Visit:
    round_size = N_PATIENTS

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # ------------------------------------------------------------------
    def _build(self):
        session = MedSenSession(rng=self.seed)
        patients = inputs.patients(self.seed, session.config.alphabet, N_PATIENTS)
        for patient_id, identifier in patients:
            session.authenticator.register(patient_id, identifier)
        blood = ClinicWorkload(
            n_tenants=N_PATIENTS, seed=self.seed, duration_s=CAPTURE_S
        )
        # The discarded warm-up visit: fixed input, independent of the seed.
        session.run_diagnostic(
            inputs.warmup_blood(),
            inputs.passwords(session.config.alphabet)[0],
            duration_s=CAPTURE_S,
            rng=derive_request_rng(0, "warmup", 0),
        )
        return session, patients, blood

    def setup(self) -> float:
        (self.session, self.patients, self.blood), setup_s = repeat_setup(self._build)
        return setup_s

    # ------------------------------------------------------------------
    def _rounds(self):
        sequence = 0
        while True:
            yield [(index, sequence) for index in range(N_PATIENTS)]
            sequence += 1

    def _run_op(self, spec) -> Op:
        index, sequence = spec
        patient_id, identifier = self.patients[index]
        blood = self.blood.blood_sample(index, sequence)
        rng = derive_request_rng(self.seed, patient_id, sequence)
        start = perf_counter()
        result = self.session.run_diagnostic(
            blood, identifier, duration_s=CAPTURE_S, rng=rng
        )
        end = perf_counter()
        return Op("session", start, end, False, CAPTURE_S, result=(patient_id, result))

    def run(self, seconds: float, schedule=None):
        return sequential_rounds(seconds, self._rounds(), self._run_op, schedule)

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def check(self, run) -> bool:
        """Each cloud report against the staged oracle, bit for bit; the
        run's decrypted particle total within 20 % of the ground truth."""
        detector = self.session.server.detector
        decrypted = truth = 0
        for op in run.ops:
            _, result = op.result
            trace = result.capture.trace
            expected = staged_detect(detector, trace.voltages, trace.sampling_rate_hz)
            op.error = explain_report_mismatch(result.relay.report, expected)
            op.ok = not op.error
            decrypted += result.decryption.total_count
            truth += result.capture.ground_truth.total_arrived
        correct = abs(decrypted - truth) <= max(3, 0.2 * truth)
        return correct, f"decrypted particles {decrypted} vs ground truth {truth}"

    def outputs(self, run):
        return [
            (patient, result.decryption.total_count, result.auth.user_id,
             result.diagnosis.label, result.relay.report.count)
            for patient, result in (op.result for op in run.ops)
        ]

    def layer_metrics(self, run, tracer):
        totals = tracer.totals()
        traced = run.sessions(traced=True)
        metrics = {
            name + "_s": totals.get(name, (0.0, 0))[0] / len(traced)
            for _, _, name in LAYERS
        }
        metrics["core.unattributed_s"] = metrics.pop("core.session_s")
        results = [op.result[1] for op in run.ops]
        metrics["mobile.raw_bytes"] = float(np.mean([r.relay.raw_bytes for r in results]))
        metrics["mobile.uploaded_bytes"] = float(
            np.mean([r.relay.uploaded_bytes for r in results])
        )
        first = run.ops[: RSS_ROUNDS * N_PATIENTS]
        metrics.update(inputs.auth_counts(
            (patient, result.auth.accepted, result.auth.user_id)
            for patient, result in (op.result for op in first)
        ))
        return metrics
