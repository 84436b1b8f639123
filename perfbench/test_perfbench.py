"""Self-tests of the benchmark's helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

import harness  # noqa: E402
from harness import Op, TimedRun, sequential_rounds, tail_percentile  # noqa: E402
from spans import Tracer, self_times, totals_by_name  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_withheld_with_fewer_than_ten_beyond(self):
        self.assertIsNone(tail_percentile(list(range(99)), 0.9))
        self.assertIsNone(tail_percentile(list(range(999)), 0.99))
        self.assertIsNone(tail_percentile([], 0.5))

    def test_reported_with_ten_beyond(self):
        values = list(range(100, 0, -1))  # unsorted on purpose
        self.assertEqual(tail_percentile(values, 0.9), 90)
        self.assertEqual(tail_percentile(list(range(1000)), 0.99), 989)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        parents = [-1, 0, 1, 0]
        self.assertEqual(self_times(starts, ends, parents), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once_and_clip(self):
        # Children [1, 5] and [3, 7] overlap; [8, 12] sticks out of [0, 10].
        starts = [0.0, 1.0, 3.0, 8.0]
        ends = [10.0, 5.0, 7.0, 12.0]
        parents = [-1, 0, 0, 0]
        self.assertEqual(self_times(starts, ends, parents)[0], 10.0 - 6.0 - 2.0)

    def test_self_times_add_up_to_the_root(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda: sum(range(1000)), "inner")
        outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
        tracer.enabled = True
        outer()
        tracer.enabled = False
        outer()  # untraced: records nothing
        self.assertEqual(tracer.names, ["outer", "inner", "inner", "inner"])
        self.assertEqual(tracer.parents, [-1, 0, 0, 0])
        root = tracer.ends[0] - tracer.starts[0]
        self.assertAlmostEqual(sum(tracer.self_times()), root, places=12)
        totals = totals_by_name(tracer.names, tracer.self_times())
        self.assertEqual(totals["inner"][1], 3)

    def test_install_and_uninstall_restore_the_original(self):
        class Layer:
            def work(self):
                return 7

        original = Layer.__dict__["work"]
        tracer = Tracer()
        tracer.install(Layer, "work", "layer.work")
        tracer.enabled = True
        self.assertEqual(Layer().work(), 7)
        tracer.uninstall()
        self.assertIs(Layer.__dict__["work"], original)
        self.assertEqual(tracer.names, ["layer.work"])


class AccountingTest(unittest.TestCase):
    def test_attempted_and_failed(self):
        ops = [Op("session", 0.0, 1.0, False, 60.0) for _ in range(6)]
        ops[2].ok = ops[5].ok = False
        run = TimedRun(ops=ops, wall_s=6.0, rss_mb=1.0)
        self.assertEqual((run.attempted, run.failed), (6, 2))

    def test_whole_rounds_only(self):
        def rounds():
            while True:
                yield ["a", "b", "c"]

        def run_op(spec):
            return Op("session", 0.0, 0.0, False, 1.0, result=spec)

        run = sequential_rounds(0.0, rounds(), run_op, fixed_point=lambda: 5.0)
        self.assertEqual(run.attempted, 3 * harness.RSS_ROUNDS)
        self.assertEqual(run.rss_mb, 5.0)
        run = sequential_rounds(0.01, rounds(), run_op, fixed_point=lambda: 5.0)
        self.assertEqual(run.attempted % 3, 0)

    def test_tracing_overhead_ratio(self):
        ops = [
            Op("session", 0.0, 1.0, False, 60.0),
            Op("session", 1.0, 3.0, True, 60.0),
        ]
        ratios = harness.tracing_overhead(TimedRun(ops=ops, wall_s=3.0, rss_mb=0.0))
        self.assertEqual(ratios["trace.sessions_per_s_ratio"], 0.5)


def _trace(seed: int, dips: int):
    """A small five-carrier trace with ``dips`` particle-like dips."""
    from repro.hardware.acquisition import AcquiredTrace

    rng = np.random.default_rng(seed)
    samples = 2250
    trace = 1.0 + 1e-4 * rng.standard_normal((5, samples))
    for centre in rng.choice(np.arange(50, samples - 50), size=dips, replace=False):
        trace[:, centre - 3 : centre + 4] -= 0.02 * np.hanning(7)
    return AcquiredTrace(trace, 450.0, (0.5e6, 1e6, 2e6, 4e6, 8e6))


class WrongReferenceTest(unittest.TestCase):
    """A check fed a wrong result fails the operation, and only it."""

    def test_visit_check(self):
        from repro.dsp.peakdetect import PeakDetector
        from visit import Visit

        detector = PeakDetector()
        right, other = _trace(1, 12), _trace(2, 9)

        def op(report_trace):
            result = SimpleNamespace(
                capture=SimpleNamespace(
                    trace=right, ground_truth=SimpleNamespace(total_arrived=12)
                ),
                relay=SimpleNamespace(
                    report=detector.detect(report_trace.voltages, 450.0)
                ),
                decryption=SimpleNamespace(total_count=12),
            )
            return Op("session", 0.0, 1.0, False, 5.0, result=("p", result))

        visit = Visit(seed=0)
        visit.session = SimpleNamespace(server=SimpleNamespace(detector=detector))
        run = TimedRun(ops=[op(right), op(other)], wall_s=2.0, rss_mb=0.0)
        self.assertTrue(visit.check(run)[0])
        self.assertEqual([o.ok for o in run.ops], [True, False])
        self.assertEqual(run.failed, 1)

    def test_monitor_check(self):
        from repro.dsp.peakdetect import PeakDetector
        from repro.stream.session import report_digest
        from monitor import Monitor

        right, other = _trace(3, 10), _trace(4, 10)
        digest = report_digest(PeakDetector().detect(right.voltages, 450.0))
        monitor = Monitor(seed=0)
        monitor.streams = [("p", right)]
        monitor.uploads = [("q", right)]
        ops = [
            Op("session", 0, 1, False, 5.0, result=("stream", 0, SimpleNamespace(
                digest=digest, n_chunks=5))),
            Op("session", 1, 2, False, 5.0, result=("stream", 0, SimpleNamespace(
                digest="0" * 24, n_chunks=5))),
            Op("upload", 2, 3, False, 5.0, result=(
                "upload", 0, PeakDetector().detect(other.voltages, 450.0))),
        ]
        run = TimedRun(ops=ops, wall_s=3.0, rss_mb=0.0)
        monitor.check(run)
        self.assertEqual([o.ok for o in run.ops], [True, False, False])

    def test_clinic_check(self):
        from clinic import CAPTURE_S, Clinic, replay
        from repro.core.config import MedSenConfig
        from repro.serving.workload import ClinicWorkload
        import inputs

        clinic = Clinic(seed=0)
        clinic.tenants = [
            (f"t{i}", password) for i, password in
            enumerate(inputs.passwords(MedSenConfig().alphabet)[6:])
        ]
        clinic.tenant_index = {"t0": 0, "t1": 1}
        blood = ClinicWorkload(n_tenants=2, seed=0, duration_s=CAPTURE_S)
        clinic.submissions = [
            (tenant_id, blood.blood_sample(i, 0), password)
            for i, (tenant_id, password) in enumerate(clinic.tenants)
        ]
        right = replay(clinic.fleet, clinic.tenants, clinic.submissions[:1])[0]

        def outcome(digest):
            return SimpleNamespace(
                digest=lambda: digest, tenant_id="t", tenant_sequence=0
            )

        run = TimedRun(ops=[
            Op("session", 0, 1, False, CAPTURE_S, result=(0, 0, outcome(right))),
            Op("session", 0, 1, False, CAPTURE_S, result=(1, 0, outcome(right))),
        ], wall_s=1.0, rss_mb=0.0)
        clinic.check(run)
        self.assertEqual([o.ok for o in run.ops], [True, False])


if __name__ == "__main__":
    unittest.main()
