"""``clinic``: a closed loop through the sharded tier.

An :class:`~repro.fleet.frontdoor.AsyncFrontDoor` over a
:class:`~repro.fleet.cluster.FleetCluster` of two shard processes with
record journals and a freshness secret (so every cloud exchange carries
an authenticated token); shards always run live telemetry.  Two
requests are in flight at any time: two clients, each submitting its
next request only when its previous one returned, and each serving the
tenants one shard owns.  So both shards stay busy, and the figures are
not set by when two requests happen to route to the same shard (with
clients free to pick any tenant, runs with the same seed differed by
20 % in sessions per second).  Captures are 20 s, the front door's
default; shorter ones make more honest sessions fail (password
(1, 1), left out here, failed identifier recovery in 13 of 600
sessions at 8 s, 1 of 600 at 12 s, and once at 20 s).  The per-request
cost of front door, pipe transport,
scheduler, guard tokens, telemetry and journal stays a visible share
of each session.

Inputs from the seed: the blood draws, around the four CD4 stage
baselines, and the fleet seed that drives each session's randomness.
The eight tenants hold the eight passwords of ``inputs.passwords`` in a
fixed order, named so that the ring gives four to each shard.  A client's round is one session for each of its tenants.
"""

import asyncio
import multiprocessing
import os
import shutil
from itertools import count
from time import perf_counter

from harness import RSS_ROUNDS, RUN_DIR, Op, TimedRun, peak_rss_mb, repeat_setup
from repro.core.config import MedSenConfig
from repro.fleet.cluster import FleetCluster, FleetTierConfig
from repro.fleet.frontdoor import AsyncFrontDoor
from repro.fleet.messages import SessionOutcome
from repro.serving.scheduler import FleetConfig, FleetScheduler
from repro.serving.workload import ClinicWorkload

import inputs

CAPTURE_S = 20.0
N_TENANTS = 8
N_SHARDS = 2
SECRET = b"perfbench-clinic-freshness-secret"

LAYERS = ((AsyncFrontDoor, "submit", "fleet.submit"),)


def replay(fleet, tenants, submissions):
    """Digests of ``submissions`` run in order through an in-process
    FleetScheduler enrolling every tenant."""
    scheduler = FleetScheduler(fleet).start()
    try:
        for tenant_id, identifier in tenants:
            scheduler.register_tenant(tenant_id, identifier)
        digests = []
        for tenant_id, blood, identifier in submissions:
            future = scheduler.submit(tenant_id, blood, identifier, duration_s=CAPTURE_S)
            outcome = SessionOutcome.from_result(
                future.result(), tenant_id, future.request.tenant_sequence
            )
            digests.append(outcome.digest())
        return digests
    finally:
        scheduler.shutdown()


def _replay_into(connection, fleet, tenants, submissions) -> None:
    try:
        connection.send(replay(fleet, tenants, submissions))
    finally:
        connection.close()


def split_tenants(cluster, passwords):
    """Name one tenant per password so the ring splits them evenly.

    Returns ``(tenants, clients)``: ``(tenant_id, password)`` pairs, and
    for each shard the indices of the tenants it owns.
    """
    shards = cluster.shard_ids
    quota = {
        shard: len(passwords) // len(shards) + (rank < len(passwords) % len(shards))
        for rank, shard in enumerate(shards)
    }
    owned = {shard: [] for shard in shards}
    names = (f"tenant-{number:03d}" for number in count())
    tenants = []
    for password in passwords:
        for name in names:
            shard = cluster.handle_for(name).shard_id
            if len(owned[shard]) < quota[shard]:
                owned[shard].append(len(tenants))
                tenants.append((name, password))
                break
    return tenants, [owned[shard] for shard in shards]


class Deployment:
    """A running cluster with its journals, and the enrolled tenants."""

    def __init__(self, cluster: FleetCluster, journal_dir: str) -> None:
        self.cluster = cluster
        self.journal_dir = journal_dir

    def close(self) -> None:
        self.cluster.shutdown()
        shutil.rmtree(self.journal_dir, ignore_errors=True)


class Clinic:
    round_size = N_TENANTS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fleet = FleetConfig(seed=seed, n_workers=1, freshness_secret=SECRET)
        self._builds = count()
        self.deployment = None

    # ------------------------------------------------------------------
    def _build(self) -> Deployment:
        journal_dir = os.path.join(RUN_DIR, f"journals-{next(self._builds)}")
        tier = FleetTierConfig(
            n_shards=N_SHARDS,
            shard=self.fleet,
            max_inflight=N_SHARDS,
            journal=True,
            journal_dir=journal_dir,
        )
        deployment = Deployment(FleetCluster(tier).start(), journal_dir)
        try:
            door = AsyncFrontDoor(deployment.cluster)
            tenants, clients = split_tenants(
                deployment.cluster, inputs.passwords(MedSenConfig().alphabet)
            )

            async def enrol_and_warm_up():
                for tenant_id, identifier in tenants:
                    await door.register_tenant(tenant_id, identifier)
                # The discarded warm-up session: fixed blood.
                await door.submit(
                    tenants[0][0], inputs.warmup_blood(), tenants[0][1],
                    duration_s=CAPTURE_S,
                )

            asyncio.run(enrol_and_warm_up())
        except BaseException:
            deployment.close()
            raise
        deployment.door, deployment.tenants, deployment.clients = door, tenants, clients
        deployment.blood = ClinicWorkload(n_tenants=len(tenants), seed=self.seed)
        return deployment

    def setup(self) -> float:
        self.deployment, setup_s = repeat_setup(self._build, Deployment.close)
        self.cluster = self.deployment.cluster
        self.door = self.deployment.door
        self.tenants = self.deployment.tenants
        self.tenant_index = {tenant_id: i for i, (tenant_id, _) in enumerate(self.tenants)}
        # Submission 0 is the warm-up: the replay must see it too.
        self.submissions = [(self.tenants[0][0], inputs.warmup_blood(), self.tenants[0][1])]
        return setup_s

    def close(self) -> None:
        if self.deployment is not None:
            self.deployment.close()
            self.deployment = None

    # ------------------------------------------------------------------
    def run(self, seconds: float, schedule=None) -> TimedRun:
        return asyncio.run(self._loop(seconds, schedule))

    async def _loop(self, seconds: float, schedule) -> TimedRun:
        ops = []
        submissions = self.submissions
        state = {"rss_mb": 0.0}
        fixed_point = RSS_ROUNDS * len(self.tenants)
        shard_pids = [
            self.cluster.handle(shard_id).process.pid
            for shard_id in self.cluster.shard_ids
        ]
        start = perf_counter()

        async def client(members):
            for round_index in count():
                if round_index >= RSS_ROUNDS and perf_counter() - start >= seconds:
                    return
                for tenant_index in members:
                    tenant_id, identifier = self.tenants[tenant_index]
                    blood = self.deployment.blood.blood_sample(tenant_index, round_index)
                    index = len(submissions)
                    submissions.append((tenant_id, blood, identifier))
                    traced = schedule.update(round_index) if schedule else False
                    began = perf_counter()
                    outcome = await self.door.submit(
                        tenant_id, blood, identifier, duration_s=CAPTURE_S
                    )
                    ops.append(
                        Op("session", began, perf_counter(), traced, CAPTURE_S,
                           result=(index, round_index, outcome))
                    )
                    if len(ops) == fixed_point:
                        state["rss_mb"] = peak_rss_mb(shard_pids)

        await asyncio.gather(*(client(members) for members in self.deployment.clients))
        wall_s = perf_counter() - start
        if schedule is not None:
            schedule.tracer.enabled = False
        ops.sort(key=lambda op: op.result[0])
        self.telemetry = self.cluster.telemetry()
        self.quantiles = self.cluster.merged_quantiles()
        self.journal_bytes = sum(
            os.path.getsize(os.path.join(self.deployment.journal_dir, name))
            for name in os.listdir(self.deployment.journal_dir)
        )
        return TimedRun(ops=ops, wall_s=wall_s, rss_mb=state["rss_mb"])

    # ------------------------------------------------------------------
    def check(self, run) -> bool:
        """Every outcome digest against the same (seed, tenant, sequence)
        run through an in-process FleetScheduler (shard independence).

        The replay is split by tenant over :data:`N_SHARDS` child
        processes, each running its own FleetScheduler: a session's
        outcome depends only on its tenant's own submission order.  A
        child that dies without replying fails the run (``EOFError``).
        """
        groups = [
            [index for index, (tenant_id, _, _) in enumerate(self.submissions)
             if self.tenant_index[tenant_id] % N_SHARDS == group]
            for group in range(N_SHARDS)
        ]
        # Fork: the cluster is shut down by now, so this process runs no
        # other thread, and a forked child needs no resource tracker.
        context = multiprocessing.get_context("fork")
        workers = []
        try:
            for group in groups:
                receiver, sender = context.Pipe(duplex=False)
                submissions = [self.submissions[i] for i in group]
                process = context.Process(
                    target=_replay_into, args=(sender, self.fleet, self.tenants, submissions)
                )
                process.start()
                sender.close()
                workers.append((process, receiver))
            replies = [receiver.recv() for _, receiver in workers]
        finally:
            for process, receiver in workers:
                receiver.close()
                process.join(timeout=60)
                if process.is_alive():
                    process.kill()
                    process.join()
        expected = {}
        for group, digests in zip(groups, replies):
            expected.update(zip(group, digests))
        for op in run.ops:
            index, _, outcome = op.result
            if expected[index] != outcome.digest():
                op.ok = False
                op.error = f"{outcome.tenant_id}#{outcome.tenant_sequence}: digest differs"
        return True, f"reference sessions replayed in-process: {len(expected)}"

    def first_rounds(self, run):
        """Each client's first :data:`RSS_ROUNDS` rounds, by tenant and
        sequence: the same sessions in every run of a seed, whichever
        client ran ahead."""
        ops = [op for op in run.ops if op.result[1] < RSS_ROUNDS]
        return sorted(ops, key=lambda op: (op.result[2].tenant_id, op.result[2].tenant_sequence))

    def outputs(self, run):
        return [op.result[2].digest() for op in self.first_rounds(run)]

    def layer_metrics(self, run, tracer):
        """Shard-side figures from the shards' own telemetry (means from
        the merged sketches, which are exact; their percentiles are
        bucket bounds).  ``fleet.rtt_s`` is the mean time inside
        ``AsyncFrontDoor.submit`` over every timed session, so it and
        the shards' ``serve.e2e_s`` cover the same sessions."""
        counters = [shard.counters for shard in self.telemetry]
        completed = [c.get("serve.completed", 0) for c in counters]
        uploads = sum(c.get("relay.uploads", 0) for c in counters)

        def mean_of(name):
            return self.quantiles.histogram(name).mean

        rtt = sum(op.latency_s for op in run.ops) / len(run.ops)
        session = mean_of("serve.e2e_s")
        metrics = {
            "fleet.rtt_s": rtt,
            "fleet.overhead_s": rtt - session,
            "serving.session_s": session,
            "serving.queue_wait_s": mean_of("serve.queue_wait_s"),
            "cloud.analyze_s": mean_of("cloud.analysis_s"),
            "crypto.decrypt_s": mean_of("stage.decryption_s"),
            "fleet.shard_imbalance": max(completed) / (sum(completed) / len(completed)),
            "resilience.journal_bytes": self.journal_bytes / sum(completed),
            "mobile.raw_bytes": sum(c.get("relay.raw_bytes", 0) for c in counters) / uploads,
            "mobile.uploaded_bytes": sum(
                c.get("network.uploaded_bytes", 0) for c in counters
            ) / uploads,
        }
        metrics.update(inputs.auth_counts(
            (outcome.tenant_id, outcome.auth_accepted, outcome.auth_user_id)
            for _, _, outcome in (op.result for op in self.first_rounds(run))
        ))
        return metrics
