"""``monitor``: continuous telemonitoring of long captures.

Set-up records the captures on a simulated device.  Each seeded capture
is then streamed through ``DeviceStreamer`` -> ``StreamGateway`` as
sealed MSS1 chunks of one second of signal (growth capped through
``StreamSessionConfig``, so the chunk size is fixed).  Two further
captures, made from a fixed seed and so the same in every run, are
uploaded whole to ``AnalysisServer.analyze_streaming``.  Device
simulation, relay encoding and decryption do no timed work here.

Inputs from the seed: four 60-s encrypted captures of patients at the
four CD4 stage baselines.  A round streams the four captures, then
uploads the two fixed ones.
"""

from time import perf_counter

import numpy as np

from harness import Op, median, repeat_setup, sequential_rounds
from repro.cloud.server import AnalysisServer
from repro.core.device import MedSenDevice
from repro.crypto import keyshare
from repro.dsp.peakdetect import PeakDetector
from repro.dsp.windowed import WindowedPeakDetector
from repro.particles.sample import mix
from repro.serving.request import derive_request_rng
from repro.serving.workload import ClinicWorkload
from repro.stream import session as stream_session
from repro.stream.session import (
    DeviceStreamer,
    StreamGateway,
    StreamSessionConfig,
    report_digest,
)

import inputs

CAPTURE_S = 60.0
CHUNK_S = 1.0
N_STREAMS = 4
N_UPLOADS = 2
#: Seed of the uploaded captures: they do not depend on ``--seed``.
UPLOAD_SEED = 2016
SECRET = b"perfbench-monitor-stream-secret"

LAYERS = (
    (DeviceStreamer, "run", "stream.session"),
    (stream_session, "seal_chunk", "stream.seal"),
    (stream_session, "open_chunk", "stream.open"),
    (keyshare, "keystream", "crypto.keystream"),
    (StreamGateway, "ingest_chunk", "stream.ingest"),
    (WindowedPeakDetector, "feed", "dsp.windowed_feed"),
    (StreamGateway, "close_session", "stream.close"),
    (AnalysisServer, "analyze_streaming", "cloud.analyze_streaming"),
)


def record_captures(seed: int, count: int):
    """``count`` encrypted 60-s captures, one per CD4 stage baseline."""
    device = MedSenDevice(rng=seed)
    blood = ClinicWorkload(n_tenants=count, seed=seed, duration_s=CAPTURE_S)
    captures = []
    for index, (patient_id, identifier) in enumerate(
        inputs.patients(seed, device.config.alphabet, count)
    ):
        sample = blood.blood_sample(index, 0)
        pipette = identifier.to_sample(
            2.0, final_volume_ul=sample.volume_ul + 2.0,
            rng=derive_request_rng(seed, patient_id + "#pipette", 0),
        )
        capture = device.run_capture(
            mix(sample, pipette), CAPTURE_S, encrypt=True,
            rng=derive_request_rng(seed, patient_id, 0),
        )
        captures.append((patient_id, capture.trace))
    return captures


class Monitor:
    round_size = N_STREAMS + N_UPLOADS

    def __init__(self, seed: int) -> None:
        self.seed = seed

    # ------------------------------------------------------------------
    def _build(self):
        streams = record_captures(self.seed, N_STREAMS)
        uploads = record_captures(UPLOAD_SEED, N_UPLOADS)
        rate = streams[0][1].sampling_rate_hz
        chunk = int(round(CHUNK_S * rate))
        config = StreamSessionConfig(
            chunk_samples=chunk,
            min_chunk_samples=min(128, chunk),
            max_chunk_samples=chunk,
        )
        gateway = StreamGateway(SECRET, config=config)
        server = AnalysisServer()
        # The discarded warm-up: stream one fixed capture.
        patient_id, trace = uploads[0]
        DeviceStreamer(
            trace.voltages, trace.sampling_rate_hz, patient_id, SECRET,
            config=config, rng=np.random.default_rng(UPLOAD_SEED),
        ).run(gateway)
        return streams, uploads, config, gateway, server

    def setup(self) -> float:
        built, setup_s = repeat_setup(self._build)
        self.streams, self.uploads, self.config, self.gateway, self.server = built
        return setup_s

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def _rounds(self):
        round_index = 0
        while True:
            yield [("stream", index, round_index) for index in range(N_STREAMS)] + [
                ("upload", index, round_index) for index in range(N_UPLOADS)
            ]
            round_index += 1

    def _run_op(self, spec) -> Op:
        kind, index, round_index = spec
        if kind == "stream":
            patient_id, trace = self.streams[index]
            streamer = DeviceStreamer(
                trace.voltages, trace.sampling_rate_hz, patient_id, SECRET,
                config=self.config,
                rng=np.random.default_rng([self.seed, round_index, index]),
            )
            start = perf_counter()
            outcome = streamer.run(self.gateway)
            end = perf_counter()
            return Op("session", start, end, False, CAPTURE_S, result=(kind, index, outcome))
        _, trace = self.uploads[index]
        start = perf_counter()
        report = self.server.analyze_streaming(trace)
        end = perf_counter()
        return Op("upload", start, end, False, CAPTURE_S, result=(kind, index, report))

    def run(self, seconds: float, schedule=None):
        return sequential_rounds(seconds, self._rounds(), self._run_op, schedule)

    # ------------------------------------------------------------------
    def check(self, run) -> bool:
        """Streamed reports against one-shot ``PeakDetector.detect``;
        ``analyze_streaming`` reports against ``analyze``."""
        detector = PeakDetector()
        streamed = [
            report_digest(detector.detect(trace.voltages, trace.sampling_rate_hz))
            for _, trace in self.streams
        ]
        uploaded = [
            report_digest(AnalysisServer(keep_history=False).analyze(trace))
            for _, trace in self.uploads
        ]
        for op in run.ops:
            kind, index, result = op.result
            if kind == "stream":
                op.ok = result.digest == streamed[index]
                op.error = "" if op.ok else f"stream {index}: streamed report differs"
            else:
                op.ok = report_digest(result) == uploaded[index]
                op.error = "" if op.ok else (
                    f"upload {index}: analyze_streaming report differs from analyze"
                )
        return True, f"chunks per stream: {run.ops[0].result[2].n_chunks}"

    def outputs(self, run):
        return [
            result.digest if kind == "stream" else report_digest(result)
            for kind, _, result in (op.result for op in run.ops)
        ]

    def layer_metrics(self, run, tracer):
        totals = tracer.totals()
        sessions = len(run.sessions(traced=True))
        uploads = sum(1 for op in run.ops if op.kind == "upload" and op.traced)
        chunks = totals.get("stream.ingest", (0.0, 0))[1]

        def per(name, denominator):
            return totals.get(name, (0.0, 0))[0] / denominator

        return {
            "stream.seal_s": per("stream.seal", chunks),
            "stream.open_s": per("stream.open", chunks),
            "crypto.keystream_s": per("crypto.keystream", chunks),
            "dsp.windowed_feed_s": per("dsp.windowed_feed", chunks),
            "stream.ingest_s": per("stream.ingest", chunks),
            "stream.close_s": per("stream.close", sessions),
            "stream.unattributed_s": per("stream.session", sessions),
            "cloud.analyze_streaming_s": per("cloud.analyze_streaming", uploads),
            "stream.chunk_ack_p50_s": median(chunk_ack_latencies(tracer)),
        }


def chunk_ack_latencies(tracer):
    """Seal start to ingest end, for each chunk: the device seals a
    chunk, then the gateway's ingest returns its ack."""
    latencies = []
    sealed_at = None
    for name, start, end in zip(tracer.names, tracer.starts, tracer.ends):
        if name == "stream.seal":
            sealed_at = start
        elif name == "stream.ingest" and sealed_at is not None:
            latencies.append(end - sealed_at)
            sealed_at = None
    return latencies
