"""Engine-level checks of the wait-vs-hop migration check and of
queue_cap admission.

The differential oracle runs random overloaded 2-4 VM scenarios through
the engine and through a subclass that keeps the original code: the
O(V^2 Q^2) rescan of every queue as `_migration_check` (which never
skips a settled datacenter), the `all()` scan as admission and the
skip-full-VM loop as round-robin dispatch. It requires identical
migration logs and job traces. The snapshot oracle runs one check of
each on copies of a datacenter state built directly, which reaches
many more states per second than whole runs. The snapshot oracle and
a whole-run test also count the engine's calls of the decision rule:
exactly one per move.

Each VM's queue is in service order. The oracles keep their own record
of join order (`JoinOrderSimulation.joined`) and never read the engine's
`movable` list, the engine's only record of it. Demands are whole
milliseconds: the engine sums sjf queues in service order while the
rescan sums them in join order, and the two orders agree exactly for
integer-valued demands, but other float demands can differ in the last
ulp.

Two relations compare the engine with itself on the same random
scenarios: `migration_cap = 0` runs as migration off, and a datacenter
with no user base changes no trace, move or event count.
"""

import copy
import dataclasses
import re
from collections import defaultdict
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim import engine
from dispatchsim.cli import _read_scenario_text
from dispatchsim.engine import JOB_ARRIVAL, AdmissionResult, Simulation, migration_decision
from dispatchsim.model import Job, sum_in_order
from dispatchsim.scenario import load_scenario


def _step_wheel(dc):
    """The plain round-robin wheel: the VM under the pointer, full or not."""
    vm = dc.vms[dc.rr_pointer]
    dc.rr_pointer = (dc.rr_pointer + 1) % len(dc.vms)
    return vm


class JoinOrderSimulation(Simulation):
    """Records the order in which jobs join queues: `joined[job]` grows
    with each `_queue_add`, a landing migration included."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.joined = {}
        self.joins = 0

    def _queue_add(self, vm, job):
        self.joined[job] = self.joins
        self.joins += 1
        super()._queue_add(vm, job)

    def join_order(self, vm):
        """`vm`'s queued jobs in the order they joined it."""
        return sorted(vm.queue, key=self.joined.__getitem__)


class RescanSimulation(JoinOrderSimulation):
    """Reference: recomputes every wait from the queues on each decision,
    admits by scanning every VM and dispatches by stepping the plain
    round-robin wheel past full VMs. It reads the admission mode and
    queue capacity from the scenario, never from `Datacenter`."""

    def run(self):
        with mock.patch.object(engine, "admit", self._all_full_admit), \
                mock.patch.object(engine, "rr_next_vm", self._skip_full_dispatch):
            return super().run()

    def _is_full(self, vm):
        """Under queue_cap, whether `vm`'s queued jobs plus the jobs in
        transit toward it reach the queue capacity."""
        pol = self.config.policy
        return (
            pol.admission_mode == "queue_cap"
            and len(vm.queue) + len(vm.incoming) >= pol.queue_capacity
        )

    def _all_full_admit(self, job, dc, now):
        """`engine.admit` without `Datacenter.open_ids`: rejects when a
        scan of every VM finds each one full."""
        if all(map(self._is_full, dc.vms)):
            return AdmissionResult(False, "QueueFull")
        return AdmissionResult(True)

    def _skip_full_dispatch(self, dc):
        vm = _step_wheel(dc)
        # admission guaranteed a free slot somewhere; skip full VMs
        for _ in range(len(dc.vms)):
            if not self._is_full(vm):
                break
            vm = _step_wheel(dc)
        return vm

    def _sjf_key(self, job):
        return (job.demand, job.arrival, job.id)

    def _wait_ahead_of(self, vm, job, now):
        w = self._residual(vm, now)
        queue = self.join_order(vm)
        if self.scheduler == "sjf":
            key = self._sjf_key(job)
            ahead = [j for j in queue if j is not job and self._sjf_key(j) < key]
        else:
            ahead = queue[:queue.index(job)]
        return w + sum(j.demand for j in ahead)

    def _wait_if_added(self, vm, job, now):
        w = self._residual(vm, now)
        queue = self.join_order(vm)
        if self.scheduler == "sjf":
            key = self._sjf_key(job)
            w += sum(j.demand for j in queue if self._sjf_key(j) < key)
        else:
            w += sum(j.demand for j in queue)
        w += sum(j.demand for j in vm.incoming)
        return w

    def _migration_check(self, dc, now):
        if len(dc.vms) < 2:
            return
        for vm in dc.vms:
            for job in self.join_order(vm):
                if len(job.vm_history) - 1 >= self.migration_cap:
                    continue
                mean_qlen = sum(len(v.queue) for v in dc.vms) / len(dc.vms)
                candidates = {
                    v.id: self._wait_if_added(v, job, now)
                    for v in dc.vms
                    if v is not vm and len(v.queue) < mean_qlen and not self._is_full(v)
                }
                if not candidates:
                    continue
                current_wait = self._wait_ahead_of(vm, job, now)
                choice = migration_decision(
                    current_wait,
                    [(dc.vms[i], candidates[i]) for i in sorted(candidates)],
                    self.hop_ms,
                )
                if choice is None:
                    continue
                target = choice[0]
                self._queue_remove(vm, job)
                target.incoming.append(job)
                job.vm = target
                hop = self.hop_ms
                self.migration_log.append(
                    (job.id, vm.id, target.id, now, current_wait,
                     candidates[target.id] + hop)
                )
                self.calendar.schedule(now + hop, JOB_ARRIVAL, job)


@st.composite
def overloaded_scenarios(draw, admission, migration="on", tenths=False):
    """Scenario text: one 2-4 VM datacenter fed explicit jobs with
    whole-ms bursts (tenths of a ms with `tenths`), at a load of up to
    4x its capacity."""
    vms = draw(st.integers(2, 4))
    n = draw(st.integers(10, 60))
    bursts = draw(st.lists(st.integers(1, 400 if tenths else 40), min_size=n, max_size=n))
    if tenths:
        bursts = [b / 10 for b in bursts]
    rho = draw(st.sampled_from([0.5, 1.2, 2.0, 4.0]))
    span = max(1, int(sum_in_order(bursts) / (vms * rho)))
    arrivals = sorted(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)))
    policy = [
        f"scheduler = {draw(st.sampled_from(['rr', 'sjf']))}",
        f"migration = {migration}",
        f"hop_time = {draw(st.integers(0, 10))}",
        f"migration_cadence = {draw(st.integers(1, 20))}",
        f"migration_cap = {draw(st.integers(0, 3))}",
    ]
    if admission == "deadline":
        policy += ["admission = deadline", f"deadline = {draw(st.sampled_from([20, 80, 10**6]))}"]
    else:
        policy += ["admission = queue_cap", f"queue_capacity = {draw(st.integers(1, 4))}"]
    jobs = [f"job = {i} {a} {b}" for i, (a, b) in enumerate(zip(arrivals, bursts), start=1)]
    return "\n".join(
        [
            "[scenario]",
            "name = random",
            "time_unit = ms",
            f"horizon = {span + 1}",
            "seed = 1",
            "[datacenter.DC1]",
            f"vms = {vms}",
            "rate = 100",
            "memory = 1",
            "bandwidth = 1000",
            "bandwidth_unit = units_per_ms",
            "[policy]",
            *policy,
            "[jobs]",
            *jobs,
        ]
    ) + "\n"


def assert_same_run(text):
    fast = Simulation(load_scenario(text)).run()
    ref = RescanSimulation(load_scenario(text)).run()
    assert fast.migration_log == ref.migration_log
    assert [dataclasses.astuple(t) for t in fast.traces] == [
        dataclasses.astuple(t) for t in ref.traces
    ]
    assert fast.event_count == ref.event_count


ADMISSION_MODES = st.sampled_from(["deadline", "queue_cap"])


@settings(max_examples=150, deadline=None)
@given(ADMISSION_MODES.flatmap(overloaded_scenarios))
def test_migration_check_matches_rescan(text):
    assert_same_run(text)


@settings(max_examples=60, deadline=None)
@given(overloaded_scenarios("queue_cap", migration="off"))
def test_queue_cap_admission_matches_rescan_without_migration(text):
    assert_same_run(text)


def traces(metrics):
    return [dataclasses.astuple(t) for t in metrics.traces]


@pytest.mark.parametrize("admission", ["deadline", "queue_cap"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_migration_cap_zero_runs_as_migration_off(admission, data):
    # no job may ever move, so only the migration ticks differ
    text = re.sub(r"migration_cap = \d+", "migration_cap = 0", data.draw(
        overloaded_scenarios(admission)))
    capped = Simulation(load_scenario(text)).run()
    off = Simulation(load_scenario(text.replace("migration = on", "migration = off"))).run()
    assert capped.migration_log == []
    assert traces(capped) == traces(off)


@pytest.mark.parametrize("migration", ["on", "off"])
@pytest.mark.parametrize("admission", ["deadline", "queue_cap"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_datacenter_without_user_bases_changes_nothing(admission, migration, data):
    text = data.draw(overloaded_scenarios(admission, migration))
    idle = "\n".join([
        "[datacenter.DC2]", f"vms = {data.draw(st.integers(1, 4))}", "rate = 7",
        "memory = 1", "bandwidth = 3", "bandwidth_unit = units_per_ms", "[policy]",
    ])
    config = load_scenario(text.replace("[policy]", idle))
    assert [dc.id for dc in config.datacenters] == ["DC1", "DC2"]
    base = Simulation(load_scenario(text)).run()
    more = Simulation(config).run()
    assert more.migration_log == base.migration_log
    assert traces(more) == traces(base)
    assert more.event_count == base.event_count


def build_snapshot(scheduler, hop_time, cap, capacity, now, vms):
    """(sim, now): a JoinOrderSimulation of one datacenter, built with no
    jobs and then filled mid-run through `_queue_add` and `_incoming_add`,
    so its summaries hold. `vms` gives each VM as (running, queued, incoming):
    running is None or (demand, started), and each queued or incoming
    job is (demand, arrival, earlier VM ids). `capacity` None means
    deadline admission."""
    admission = (
        "admission = deadline\ndeadline = 1000"
        if capacity is None
        else f"admission = queue_cap\nqueue_capacity = {capacity}"
    )
    sim = JoinOrderSimulation(load_scenario(f"""
[scenario]
name = snapshot
time_unit = ms
horizon = 0
seed = 1

[datacenter.DC1]
vms = {len(vms)}
rate = 100
memory = 1
bandwidth = 1000
bandwidth_unit = units_per_ms

[policy]
scheduler = {scheduler}
migration = on
hop_time = {hop_time}
migration_cap = {cap}
{admission}
"""))
    ids = iter(range(1, 1000))

    def new_job(demand, arrival):
        return Job(id=next(ids), arrival=float(arrival), demand=float(demand))

    for vm, (running, queued, incoming) in zip(sim.datacenters["DC1"].vms, vms):
        if running is not None:
            job = new_job(running[0], running[1])
            job.start = float(running[1])
            vm.running = job
        for jobs, add in ((queued, sim._queue_add), (incoming, sim._incoming_add)):
            for demand, arrival, earlier in jobs:
                job = new_job(demand, arrival)
                job.vm_history = tuple(earlier) + (vm.id,)
                job.vm = vm
                add(vm, job)
    return sim, float(now)


@st.composite
def migration_snapshots(draw):
    """A `build_snapshot` of 2-5 VMs. Queued demands of 1-2 ms and many
    idle VMs make equal candidate waits common; hop_time 0, capped jobs
    and full targets are drawn often. Running jobs of up to 8 ms make a
    VM shed several jobs in one pass, so the targets change between its
    moves. Some snapshots draw queued demands of up to 40 ms, which puts
    the rr threshold mid-queue with capped jobs after it."""
    n_vms = draw(st.integers(2, 5))
    cap = draw(st.integers(0, 3))
    capacity = draw(st.sampled_from([None, 1, 2, 4]))
    now = draw(st.integers(0, 10))
    longest = draw(st.sampled_from([2, 2, 40]))

    def job_spec():
        moves = draw(st.integers(0, cap))  # == cap: the job may not move again
        earlier = draw(st.lists(st.integers(0, n_vms - 1), min_size=moves, max_size=moves))
        return draw(st.integers(1, longest)), draw(st.integers(0, now)), earlier

    vms = []
    for _ in range(n_vms):
        running = None
        if draw(st.booleans()):
            demand = draw(st.integers(1, 8))
            running = demand, now - draw(st.integers(0, demand))
        queued, incoming = [], []
        room = 8 if capacity is None else capacity
        for _ in range(draw(st.sampled_from([0, room, room]) | st.integers(0, room))):
            (queued if draw(st.integers(0, 3)) else incoming).append(job_spec())
        vms.append((running, queued, incoming))
    return build_snapshot(
        draw(st.sampled_from(["rr", "sjf"])),
        draw(st.sampled_from([0, 0, 1, 2, 5])),
        cap, capacity, now, vms,
    )


# rr, hop_time 5, migration_cap 1, at t = 10: VM 0 has 2 ms of its
# running job left and queued jobs of 3 ms, so their own waits are 2, 5,
# 8 and so on; idle, empty VM 1 gives best = 0 + 5. The job waiting
# exactly 5 stays and the one waiting 8 moves, unless it has moved once
# already; then the next one moves.
_WAIT_EQUALS_BEST = [((4, 8), [(3, 0, ())] * 3, []), (None, [], [])]
_CAPPED_AT_THRESHOLD = [
    ((4, 8), [(3, 0, ()), (3, 0, ()), (3, 0, (1,)), (3, 0, ())], []),
    (None, [], []),
]
# sjf, hop_time 5, migration_cap 1, at t = 0: VM 0 has 8 ms of its
# running job left and three queued 3 ms jobs, idle VM 1 none. With
# every queued job capped nothing moves; with only the last one (job 4,
# waiting 8 + 3 + 3 = 14) uncapped, it still moves, at cost 0 + 5.
_ALL_CAPPED = [((8, 0), [(3, 0, (1,))] * 3, []), (None, [], [])]
_UNCAPPED_BEHIND_CAPPED = [((8, 0), [(3, 0, (1,))] * 2 + [(3, 0, ())], []), (None, [], [])]


@settings(max_examples=400, deadline=None)
@given(migration_snapshots())
@example(build_snapshot("rr", 5, 1, None, 10, _WAIT_EQUALS_BEST))
@example(build_snapshot("rr", 5, 1, None, 10, _CAPPED_AT_THRESHOLD))
@example(build_snapshot("sjf", 5, 1, None, 0, _ALL_CAPPED))
@example(build_snapshot("sjf", 5, 1, None, 0, _UNCAPPED_BEHIND_CAPPED))
@example(build_snapshot("sjf", 0, 2, 4, 3, [  # hop_time 0, equal waits
    (None, [(1, 0, ()), (1, 1, ()), (2, 2, ()), (1, 3, ())], []),
    (None, [], []),
    ((2, 1), [], []),
]))
@example(build_snapshot("rr", 0, 2, 2, 3, [
    ((3, 1), [(1, 0, ()), (2, 1, ())], []),
    (None, [], [(1, 2, (0,))]),
    (None, [], []),
]))
def test_migration_check_matches_rescan_on_snapshots(snapshot):
    """One check from one state, by the engine and by the rescan, on
    copies: the same moves, queues and jobs in transit. The engine calls
    the decision rule once per move, never for a job that stays (the
    rescan imports its own copy of the rule, so the wrap does not count
    its calls)."""
    sim, now = copy.deepcopy(snapshot)
    ref = copy.deepcopy(sim)
    ref.__class__ = RescanSimulation
    with mock.patch.object(engine, "migration_decision", wraps=migration_decision) as rule:
        sim._migration_check(sim.datacenters["DC1"], now)
    ref._migration_check(ref.datacenters["DC1"], now)
    assert sim.migration_log == ref.migration_log
    assert rule.call_count == len(sim.migration_log)
    for vm, twin in zip(sim.datacenters["DC1"].vms, ref.datacenters["DC1"].vms):
        assert [j.id for j in vm.queue] == [j.id for j in twin.queue]
        assert [j.id for j in vm.incoming] == [j.id for j in twin.incoming]


def test_snapshot_examples_reach_their_edges():
    """The examples above move the jobs their comments say: job 1 is
    VM 0's running job, so its queued jobs are 2, 3, ..."""
    for scheduler, now, vms, log in (
        ("rr", 10, _WAIT_EQUALS_BEST, [(4, 0, 1, 10.0, 8.0, 5.0)]),
        ("rr", 10, _CAPPED_AT_THRESHOLD, [(5, 0, 1, 10.0, 11.0, 5.0)]),
        ("sjf", 0, _ALL_CAPPED, []),
        ("sjf", 0, _UNCAPPED_BEHIND_CAPPED, [(4, 0, 1, 0.0, 14.0, 5.0)]),
    ):
        sim, now = build_snapshot(scheduler, 5, 1, None, now, vms)
        sim._migration_check(sim.datacenters["DC1"], now)
        assert sim.migration_log == log


def _two_vm_mix(scheduler):
    """2 VMs at rho 1.2 fed 500 batches of 50 ms jobs and 500 of 450 ms
    jobs over 104,167 ms, migration on and a deadline no job reaches."""
    horizon = 104_167
    rph = (500 * 100 + 0.5) / (1000 * horizon / 3_600_000)  # exactly 500 batches each
    userbases = "\n".join(
        f"[userbase.{ub}]\nrequests_per_user_per_hour = {rph!r}\ndata_size_per_request = 100\n"
        f"datacenter = DC1\ninstruction_length = {length}\n"
        for ub, length in (("UBS", 50), ("UBL", 450))
    )
    return f"""
[scenario]
name = two_vm_mix
time_unit = ms
horizon = {horizon}
seed = 1

[advanced]
user_grouping = 1000
request_grouping = 100

[datacenter.DC1]
vms = 2
rate = 100
memory = 512
bandwidth = 1000
bandwidth_unit = units_per_ms

{userbases}
[policy]
scheduler = {scheduler}
migration = on
hop_time = 5
migration_cadence = 10
admission = deadline
deadline = {100 * horizon}
"""


@pytest.mark.parametrize("scheduler", ["rr", "sjf"])
@pytest.mark.parametrize("scenario", ["migration_demo.scn", "two_vm_mix"])
def test_whole_run_calls_the_rule_once_per_move(scenario, scheduler):
    """Over whole runs the engine calls the decision rule only for the
    jobs that move: as often as `migration_log` has entries."""
    if scenario == "two_vm_mix":
        text = _two_vm_mix(scheduler)
    else:
        text = _read_scenario_text(scenario).replace("scheduler = rr", f"scheduler = {scheduler}")
    config = load_scenario(text)
    assert config.policy.scheduler == scheduler
    with mock.patch.object(engine, "migration_decision", wraps=migration_decision) as rule:
        metrics = Simulation(config).run()
    assert metrics.migration_log
    assert rule.call_count == len(metrics.migration_log)
    if scenario == "two_vm_mix":
        assert metrics.submitted == 1000


def checked_simulation(check):
    """JoinOrderSimulation subclass that calls check(sim, kind, now) after
    every event, where kind is the event's kind."""

    def checked(kind, handler):
        def run_and_check(sim, subject, now):
            handler(sim, subject, now)
            check(sim, kind, now)

        return run_and_check

    class CheckedSimulation(JoinOrderSimulation):
        _HANDLERS = {kind: checked(kind, h) for kind, h in Simulation._HANDLERS.items()}

    return CheckedSimulation


@settings(max_examples=150, deadline=None)
@given(overloaded_scenarios("queue_cap"))
def test_queue_cap_holds_under_migration(text):
    config = load_scenario(text)
    capacity = config.policy.queue_capacity

    def queues_within_capacity(sim, kind, now):
        for vm in sim.datacenters["DC1"].vms:
            assert len(vm.queue) <= capacity, (kind, now, vm.id)

    metrics = checked_simulation(queues_within_capacity)(config).run()
    assert metrics.completed + metrics.rejected == metrics.submitted


# sjf and queue_cap: a pass that moves jobs can leave a move for a
# second pass at the same instant (a VM that shed jobs becomes a
# target), so only a pass that moved nothing may settle its datacenter.
SECOND_PASS_MOVES = "\n".join(
    [
        "[scenario]", "name = random", "time_unit = ms", "horizon = 444", "seed = 1",
        "[datacenter.DC1]", "vms = 3", "rate = 100", "memory = 1", "bandwidth = 1000",
        "bandwidth_unit = units_per_ms",
        "[policy]", "scheduler = sjf", "migration = on", "hop_time = 6",
        "migration_cadence = 1", "migration_cap = 3", "admission = queue_cap",
        "queue_capacity = 3",
        "[jobs]",
        *(
            f"job = {i} {a} {b}"
            for i, a, b in [
                (22, 7, 35), (25, 11, 34), (27, 16, 11), (28, 16, 1), (30, 20, 36),
                (31, 21, 7), (32, 23, 33), (33, 24, 5), (34, 28, 16), (37, 31, 16),
                (40, 34, 40), (41, 35, 39), (45, 40, 21),
            ]
        ),
    ]
) + "\n"


# rr on two VMs, all at t = 0: a 40 ms job, then jobs of 0.1, 0.2 and
# 0.3 ms in turn. VM 1 runs its short jobs and takes VM 0's one at a
# time, so up to 12 are in transit at once, and each landing re-sums
# the rest; CPython 3.12's compensated `sum()` differs on two of them.
IN_TRANSIT_TENTHS = "\n".join(
    [
        "[scenario]", "name = random", "time_unit = ms", "horizon = 100", "seed = 1",
        "[datacenter.DC1]", "vms = 2", "rate = 100", "memory = 1", "bandwidth = 1000",
        "bandwidth_unit = units_per_ms",
        "[policy]", "scheduler = rr", "migration = on", "hop_time = 5",
        "migration_cadence = 1", "migration_cap = 1", "admission = deadline",
        "deadline = 1000",
        "[jobs]",
        "job = 1 0 40",
        *(f"job = {i} 0 {(0.1, 0.2, 0.3)[(i - 2) % 3]}" for i in range(2, 26)),
    ]
) + "\n"


@settings(max_examples=80, deadline=None)
@given(ADMISSION_MODES.flatmap(lambda mode: overloaded_scenarios(mode, tenths=True)))
@example(IN_TRANSIT_TENTHS)
def test_incoming_sum_is_the_in_order_sum_after_every_event(text):
    """After every event each VM's `incoming_sum` is `sum_in_order` of
    its `incoming` demands, the sum `_incoming_add` builds one job at a
    time. The demands are tenths of a ms, so where three or more jobs
    are in transit a compensated `sum()` (CPython 3.12 on) can differ."""

    def incoming_sums_hold(sim, kind, now):
        for vm in sim.datacenters["DC1"].vms:
            assert vm.incoming_sum == sum_in_order(j.demand for j in vm.incoming), (kind, now)

    metrics = checked_simulation(incoming_sums_hold)(load_scenario(text)).run()
    assert metrics.completed + metrics.rejected == metrics.submitted


@settings(max_examples=80, deadline=None)
@given(ADMISSION_MODES.flatmap(overloaded_scenarios))
@example(SECOND_PASS_MOVES)
def test_datacenter_summaries_hold_after_every_event(text):
    """After every event each `open_ids` equals the ascending ids of the
    VMs a scan finds with room (`has_room`), each `queued` equals the
    jobs in the datacenter's queues, each VM's queue is its jobs in join
    order (rr) or that order sorted by (demand, arrival, id) (sjf), with
    `service_keys` the key of each queued job (None under rr),
    `movable` lists the queued jobs that may still move, in join order,
    and a rescan of a settled datacenter, run on a copy, moves no
    job. Each job's `vm` is the VM whose queue or incoming list holds
    it, and None once it has started or been rejected. Once an instant's
    events are done, no VM is idle with a non-empty queue."""
    config = load_scenario(text)
    sjf = config.policy.scheduler == "sjf"
    sjf_key = attrgetter("demand", "arrival", "id")
    cap = config.policy.migration_cap
    settled_checks = 0

    def summaries_hold(sim, kind, now):
        nonlocal settled_checks
        instant_done = not len(sim.calendar) or sim.calendar.peek_time() > now
        for job in sim.jobs:
            if job.start is not None or job.state == "rejected":
                assert job.vm is None, (kind, now, job.id)
        for dc in sim.datacenters.values():
            assert dc.open_ids == [v.id for v in dc.vms if dc.has_room(v)], (kind, now)
            assert dc.queued == sum(len(v.queue) for v in dc.vms), (kind, now)
            for vm in dc.vms:
                for job in vm.queue + vm.incoming:
                    assert job.vm is vm, (kind, now, vm.id, job.id)
                joined = sim.join_order(vm)
                assert vm.queue == (sorted(joined, key=sjf_key) if sjf else joined), (
                    kind, now, vm.id,
                )
                assert vm.service_keys == (
                    [sjf_key(j) for j in vm.queue] if sjf else None
                ), (kind, now, vm.id)
                assert vm.movable == [
                    j for j in joined if len(j.vm_history) <= cap
                ], (kind, now, vm.id)
                if instant_done:
                    assert vm.running is not None or not vm.queue, (kind, now, vm.id)
            if dc.settled:
                settled_checks += 1
                twin = copy.deepcopy(sim)
                twin.__class__ = RescanSimulation
                twin._migration_check(twin.datacenters[dc.id], now)
                assert twin.migration_log == sim.migration_log, (kind, now)

    metrics = checked_simulation(summaries_hold)(config).run()
    assert metrics.completed + metrics.rejected == metrics.submitted
    assert settled_checks > 0


# 48 jobs at t = 0 on two VMs: jobs expire queued, migrate and land,
# and expire in transit
EXPIRES_IN_TRANSIT = "\n".join(
    [
        "[scenario]", "name = random", "time_unit = ms", "horizon = 54", "seed = 1",
        "[datacenter.DC1]", "vms = 2", "rate = 100", "memory = 1", "bandwidth = 1000",
        "bandwidth_unit = units_per_ms",
        "[policy]", "scheduler = rr", "migration = on", "hop_time = 1",
        "migration_cadence = 1", "migration_cap = 1", "admission = deadline",
        "deadline = 20",
        "[jobs]",
        *(f"job = {i} 0 {({32: 4, 44: 3}).get(i, 1)}" for i in range(1, 49)),
    ]
) + "\n"


@settings(max_examples=120, deadline=None)
@given(
    st.tuples(ADMISSION_MODES, st.sampled_from(["on", "off"])).flatmap(
        lambda mode: overloaded_scenarios(*mode)
    )
)
@example(EXPIRES_IN_TRANSIT)
def test_time_in_queues_and_on_vms_matches_the_traces(text):
    """Little's law on the sample path, exactly (arrivals, demands and
    hops are whole ms). The area under Σ_v len(v.queue) equals Σ (start
    − arrival) over started jobs plus Σ (rejected_at − arrival) over
    deadline expiries, minus the time in transit: `hop_ms` per
    `migration_log` entry, or up to `rejected_at` for a job that expired
    in transit. Per VM, the area under its queue length equals the stays
    the traces give it: each runs from arrival or landing to the next
    move, the start or the expiry. A VM's busy time equals the demand of
    the jobs it started."""
    config = load_scenario(text)
    area, busy = defaultdict(float), defaultdict(float)
    last = {"t": 0.0, "vms": ()}

    def integrate(sim, kind, now):
        # the state left by one event holds until the next
        dt = now - last["t"]
        for vm_id, queued, running in last["vms"]:
            area[vm_id] += queued * dt
            busy[vm_id] += running * dt
        vms = sim.datacenters["DC1"].vms
        last["t"] = now
        last["vms"] = [(vm.id, len(vm.queue), vm.running is not None) for vm in vms]

    sim = checked_simulation(integrate)(config)
    metrics = sim.run()
    hop = sim.hop_ms
    moves = defaultdict(list)
    for entry in metrics.migration_log:
        moves[entry[0]].append(entry)

    queued = transit = 0.0
    stays, demand = defaultdict(float), defaultdict(float)
    for job in metrics.traces:
        if job.start is not None:
            end = job.start
            demand[job.vm_history[-1]] += job.demand
        elif job.reject_reason == "DeadlineExpired":
            end = job.rejected_at
        else:
            assert not job.vm_history  # rejected at admission
            continue
        queued += end - job.arrival
        own = moves[job.id]
        assert len(own) <= sim.migration_cap
        transit += sum(min(hop, end - move[3]) for move in own)
        # stay k is on vm_history[k]; a job that expired in transit
        # never landed, so it has as many stays as moves, not one more
        assert len(job.vm_history) - len(own) in (0, 1)
        for k, vm_id in enumerate(job.vm_history):
            enter = job.arrival if k == 0 else own[k - 1][3] + hop
            if k < len(own):
                assert own[k][1] == vm_id
                stays[vm_id] += own[k][3] - enter
            else:
                stays[vm_id] += end - enter

    assert sum(area.values()) == queued - transit
    assert {v: a for v, a in area.items() if a} == {v: s for v, s in stays.items() if s}
    assert {v: b for v, b in busy.items() if b} == demand
