"""Fault injection, watchdog forensics and the co-simulation oracle
(repro.resilience).

The resilience contract under test: a faulted run either completes with
architecturally correct state (proved by the oracle) or raises a *typed*
ReproError with a forensic payload — silently wrong numbers are the only
forbidden outcome.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import MachineConfig
from repro.errors import (
    ConfigError,
    CycleLimitError,
    DeadlockError,
    QueueProtocolError,
    ReproError,
    WorkloadError,
)
from repro.experiments import prepare
from repro.experiments.runner import build_machine, run_model
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSite,
    check_commit_stream,
    run_fault_campaign,
    verified_run,
)
from repro.sim import MODES, ArchQueue, DecoupledFunctionalSimulator
from repro.telemetry import Telemetry, check_stack
from repro.workloads import DmWorkload, FieldWorkload

ALL_MODES = tuple(MODES)


@pytest.fixture(scope="module")
def field_cw():
    """Small regular-scan benchmark (heavy LDQ traffic, no CMAS forks)."""
    return prepare(FieldWorkload(n=500), MachineConfig())


@pytest.fixture(scope="module")
def dm_cw():
    """Small hash-lookup benchmark (hundreds of fills and CMAS forks)."""
    return prepare(DmWorkload(n=2048, buckets=512, queries=60),
                   MachineConfig())


# ----------------------------------------------------------------------
# FaultPlan determinism and validation.

class TestFaultPlan:
    def test_same_seed_same_plan(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        assert FaultPlan.random(7, count=16) == FaultPlan.random(7, count=16)

    def test_different_seed_different_plan(self):
        assert FaultPlan.random(7) != FaultPlan.random(8)

    def test_sites_drawn_from_requested_kinds(self):
        plan = FaultPlan.random(3, count=32, kinds=("delay_fill",))
        assert len(plan.sites) == 32
        assert all(site.kind == "delay_fill" for site in plan.sites)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultSite("melt_the_alu", at=0)

    def test_negative_ordinal_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            FaultSite("delay_fill", at=-1)

    def test_describe_names_every_site(self):
        plan = FaultPlan.random(11, count=5)
        text = plan.describe()
        assert "seed=11" in text
        for site in plan.sites:
            assert site.kind in text

    def test_functional_schedules_cover_data_faults(self):
        plan = FaultPlan(seed=0, sites=(
            FaultSite("corrupt_transfer", at=3),
            FaultSite("drop_transfer", at=5),
            FaultSite("delay_fill", at=0, arg=10),
        ))
        assert plan.functional_schedules() == {
            "LDQ": {3: "corrupt", 5: "drop"}
        }

    def test_injector_first_site_per_ordinal_wins(self):
        plan = FaultPlan(seed=0, sites=(
            FaultSite("delay_fill", at=2, arg=10),
            FaultSite("drop_fill", at=2),
        ))
        injector = FaultInjector(plan)
        assert injector._fill_sites[2].kind == "delay_fill"


# ----------------------------------------------------------------------
# Watchdog regression: the old one-cycle "nudge" is gone, and known-good
# workloads must still complete on every model.

class TestWatchdogRegression:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_known_good_workloads_complete(self, field_cw, config, mode):
        result = run_model(field_cw, config, mode)
        assert result.cycles > 0

    def test_skip_to_next_event_reports_exhaustion(self, field_cw, config):
        """The nudge replacement: once nothing can ever wake up again,
        the event skip answers None (which the watchdog converts into a
        structural DeadlockError) instead of inventing now+1."""
        machine = build_machine(field_cw, config, "superscalar")
        machine.run()
        assert machine._skip_to_next_event(10**9) is None

    def test_watchdog_window_validated(self):
        with pytest.raises(ConfigError, match="watchdog_window"):
            MachineConfig(watchdog_window=0)

    def test_max_cycles_validated(self):
        with pytest.raises(ConfigError, match="max_cycles"):
            MachineConfig(max_cycles=0)


# ----------------------------------------------------------------------
# Cycle budget: MachineConfig.max_cycles (the CLI's --max-cycles).

class TestCycleLimit:
    def test_run_override_raises_typed_error(self, field_cw, config):
        machine = build_machine(field_cw, replace(config, max_cycles=50),
                                "hidisc")
        with pytest.raises(CycleLimitError) as exc_info:
            machine.run()
        message = str(exc_info.value)
        assert "field" in message and "hidisc" in message
        assert "--max-cycles" in message and "max_cycles" in message

    def test_config_budget_is_honoured(self, field_cw):
        tight = MachineConfig(max_cycles=50)
        with pytest.raises(CycleLimitError):
            build_machine(field_cw, tight, "superscalar").run()


# ----------------------------------------------------------------------
# Timing-layer faults: graceful degradation, cycle accounting intact.

class TestTimingFaults:
    def test_delay_and_stall_faults_slow_but_verify(self, field_cw, config):
        clean = run_model(field_cw, config, "hidisc")
        plan = FaultPlan(seed=0, sites=(
            FaultSite("delay_fill", at=0, arg=400),
            FaultSite("delay_fill", at=5, arg=400),
            FaultSite("stall_queue", at=3, arg=200),
        ))
        injector = FaultInjector(plan)
        result = verified_run(field_cw, config, "hidisc", faults=injector)
        assert result.verified
        assert result.cycles >= clean.cycles
        assert result.faults_injected == {"delay_fill": 2, "stall_queue": 1}

    def test_cpi_stacks_still_sum_under_faults(self, field_cw, config):
        """Fault latencies flow through complete_at, so the cycle taxonomy
        must keep summing exactly to the measured cycles."""
        plan = FaultPlan(seed=0, sites=(
            FaultSite("delay_fill", at=1, arg=300),
            FaultSite("drop_fill", at=4),
            FaultSite("stall_queue", at=2, arg=150),
        ))
        machine = build_machine(field_cw, config, "hidisc",
                                telemetry=Telemetry(cpi=True),
                                faults=FaultInjector(plan))
        result = machine.run()
        assert result.cpi_stacks
        for core, stack in result.cpi_stacks.items():
            check_stack(stack, result.cycles, core)

    def test_corrupt_line_forces_remiss_but_verifies(self, dm_cw, config):
        plan = FaultPlan(seed=0, sites=(
            FaultSite("corrupt_line", at=0),
            FaultSite("corrupt_line", at=2),
        ))
        injector = FaultInjector(plan)
        result = verified_run(dm_cw, config, "superscalar", faults=injector)
        assert result.verified
        assert injector.counts.get("corrupt_line") == 2

    def test_suppress_trigger_degrades_gracefully(self, dm_cw, config):
        clean = run_model(dm_cw, config, "hidisc")
        assert clean.cmas_threads_forked > 4
        plan = FaultPlan(seed=0, sites=tuple(
            FaultSite("suppress_trigger", at=k) for k in range(4)
        ))
        injector = FaultInjector(plan)
        result = verified_run(dm_cw, config, "hidisc", faults=injector)
        assert result.verified
        assert injector.counts.get("suppress_trigger") == 4
        assert result.cmas_threads_forked < clean.cmas_threads_forked

    def test_drop_transfer_raises_forensic_deadlock(self, field_cw, config):
        plan = FaultPlan(seed=0, sites=(FaultSite("drop_transfer", at=2),))
        injector = FaultInjector(plan)
        machine = build_machine(field_cw, config, "hidisc", faults=injector)
        with pytest.raises(DeadlockError) as exc_info:
            machine.run()
        err = exc_info.value
        # The dump carries everything needed to diagnose the stuck transfer.
        assert err.dump["benchmark"] == "field"
        assert err.dump["mode"] == "hidisc"
        assert err.dump["dropped_transfer_gids"] == injector.dropped_gids
        assert err.dump["faults_injected"] == {"drop_transfer": 1}
        assert set(err.dump["cores"]) == {"CP", "AP", "CMP"}
        message = str(err)
        assert "deadlock" in message
        assert str(injector.dropped_gids[0]) in message

    def test_deadlock_detected_structurally_not_by_cycle_limit(
            self, field_cw, config):
        """The watchdog must fire the moment the machine is provably stuck
        (or within one livelock window), not at the two-billion-cycle
        budget like the old nudge workaround."""
        plan = FaultPlan(seed=0, sites=(FaultSite("drop_transfer", at=0),))
        machine = build_machine(field_cw, config, "hidisc",
                                faults=FaultInjector(plan))
        with pytest.raises(DeadlockError) as exc_info:
            machine.run()
        assert exc_info.value.dump["cycle"] < config.max_cycles // 1000

    def test_each_kind_fires_at_its_scheduled_ordinal(self, field_cw, dm_cw,
                                                      config):
        """Directly pin each timing-side kind to a small ordinal and assert
        exactly one fault fires — guards the per-domain ordinal counters
        against drift."""
        cases = [
            (field_cw, "delay_fill", 1),
            (field_cw, "drop_fill", 2),
            (field_cw, "corrupt_line", 0),
            (field_cw, "stall_queue", 3),
            (dm_cw, "suppress_trigger", 0),
        ]
        for cw, kind, at in cases:
            plan = FaultPlan(seed=0, sites=(FaultSite(kind, at=at, arg=9),))
            outcome = run_fault_campaign(cw, config, "hidisc", plan)
            assert outcome.graceful, (kind, outcome.as_dict())
            assert outcome.fired == {kind: 1}, (kind, outcome.as_dict())


# ----------------------------------------------------------------------
# Functional-layer faults: corrupted/dropped payloads surface as typed
# errors, and the counters land in QueueStats.

class TestFunctionalFaults:
    def test_queue_drop_starves_pop(self, field_cw):
        sim = DecoupledFunctionalSimulator(field_cw.compilation.decoupled)
        sim.queues.ldq.schedule_faults({0: "drop"})
        with pytest.raises(QueueProtocolError, match="empty"):
            sim.run()
        assert sim.queues.ldq.stats.drops == 1

    def test_queue_corruption_fails_verification(self, dm_cw):
        sim = DecoupledFunctionalSimulator(dm_cw.compilation.decoupled)
        sim.queues.ldq.schedule_faults({1: "corrupt"})
        try:
            state = sim.run()
        except ReproError:
            return  # corrupted pointer/index faulted mid-run — typed, fine
        with pytest.raises(WorkloadError):
            dm_cw.workload.verify(state)
        assert sim.queues.ldq.stats.corruptions == 1

    def test_stats_dict_reports_fault_counters(self):
        queue = ArchQueue("LDQ")
        queue.schedule_faults({0: "drop", 1: "corrupt"})
        queue.push(10)            # dropped
        queue.push(11)            # corrupted to 11 ^ 1 == 10
        stats = queue.stats
        assert stats.drops == 1
        assert stats.corruptions == 1
        assert stats.pushes == 2
        assert len(queue) == 1
        assert queue.pop() == 10

    def test_corrupt_value_perturbs_numbers_only(self):
        from repro.sim.queues import _corrupt_value

        assert _corrupt_value(42) == 43
        assert _corrupt_value(-1.5) == 1.5
        assert _corrupt_value(0.0) == 1.0
        assert _corrupt_value(True) is True
        assert _corrupt_value("x") == "x"


# ----------------------------------------------------------------------
# The co-simulation oracle.

class TestOracle:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_clean_runs_verify_on_every_model(self, field_cw, config, mode):
        result = verified_run(field_cw, config, mode)
        assert result.verified
        assert result.cycles == run_model(field_cw, config, mode).cycles

    def test_verify_suite_runs_each_functional_model_once(self,
                                                          monkeypatch):
        """``prepare`` referees each compilation, so ``--verify`` adds
        only the commit-stream check: one sequential and one decoupled
        functional run per benchmark."""
        from repro.experiments import run_suite
        from repro.sim import FunctionalSimulator

        calls = {}
        for cls in (FunctionalSimulator, DecoupledFunctionalSimulator):
            def counted(self, *args, _run=cls.run, _name=cls.__name__,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _run(self, *args, **kwargs)
            monkeypatch.setattr(cls, "run", counted)
        # jobs=1: the counter counts in this process only
        run_suite(quick=True, verify=True, cache=None, jobs=1)
        assert calls == {"FunctionalSimulator": 9,
                         "DecoupledFunctionalSimulator": 9}

    def test_commit_stream_requires_recording(self, field_cw, config):
        machine = build_machine(field_cw, config, "superscalar")
        machine.run()
        problems = check_commit_stream(machine)
        assert problems and "record_commits" in problems[0]

    def test_commit_stream_flags_tampering(self, field_cw, config):
        machine = build_machine(field_cw, config, "superscalar",
                                record_commits=True)
        machine.run()
        assert check_commit_stream(machine) == []
        # Replaying a committed position must be reported as a duplicate,
        # and its displaced victim as never-committed.
        core, gid, pos = machine.commit_log[10]
        machine.commit_log[11] = (core, gid, pos)
        problems = "\n".join(check_commit_stream(machine))
        assert "committed twice" in problems
        assert "never committed" in problems


# ----------------------------------------------------------------------
# Campaigns: every seeded plan either completes-and-verifies or raises
# a typed error.  The graceful-degradation acceptance sweep.

class TestCampaigns:
    @pytest.mark.parametrize("seed", range(8))
    def test_campaign_is_graceful_for_any_seed(self, field_cw, config,
                                               seed):
        plan = FaultPlan.random(seed, count=6)
        for mode in ("superscalar", "hidisc"):
            outcome = run_fault_campaign(field_cw, config, mode, plan)
            assert outcome.graceful, outcome.as_dict()
            if outcome.outcome == "raised":
                assert outcome.error_type and outcome.error

    def test_campaign_outcome_payload_round_trips(self, field_cw, config):
        plan = FaultPlan.random(4, count=6)
        outcome = run_fault_campaign(field_cw, config, "hidisc", plan)
        payload = outcome.as_dict()
        assert payload["benchmark"] == "field"
        assert payload["plan_seed"] == 4
        assert payload["graceful"] is True
        assert "field" in outcome.summary()
        assert "seed 4" in outcome.summary()

    def test_campaign_never_returns_unverified_completion(self, field_cw,
                                                          config):
        plan = FaultPlan(seed=1, sites=(FaultSite("delay_fill", at=0,
                                                  arg=50),))
        outcome = run_fault_campaign(field_cw, config, "cp_ap", plan)
        assert outcome.outcome == "completed" and outcome.verified
        assert outcome.graceful

    def test_functional_drop_is_caught_before_timing(self, field_cw,
                                                     config):
        plan = FaultPlan(seed=0, sites=(FaultSite("drop_transfer", at=1),))
        outcome = run_fault_campaign(field_cw, config, "hidisc", plan)
        assert outcome.graceful
        assert outcome.outcome == "raised"
        assert outcome.error_type == "QueueProtocolError"
        assert outcome.queue_faults.get("LDQ") == 1
