"""Online/offline equivalence and behavior of the decision service.

The central claim of ``repro.serve`` is exactness: a service fed the same
events, job timelines and policy as an offline replay produces *bit-identical*
decisions and cost totals — for the forest baselines and the RL policy alike,
with and without restartable jobs, under any micro-batch configuration.
"""

from __future__ import annotations

import asyncio
import re

import numpy as np
import pytest

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.myopic import MyopicRFPolicy
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.baselines.static import (
    AlwaysMitigatePolicy,
    NeverMitigatePolicy,
    OraclePolicy,
    PeriodicMitigatePolicy,
)
from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.features import OnlineFeatureState
from repro.core.policies import MitigationPolicy, RLPolicy
from repro.evaluation.runner import (
    build_traces,
    evaluate_policy,
    replay_decision_masks,
)
from repro.serve import (
    ConstantJobProvider,
    DecisionService,
    ReplaySource,
    SampledJobProvider,
    ServeConfig,
    TailSource,
    TimelineJobProvider,
    serve_log,
)
from repro.telemetry.error_log import ErrorLog
from repro.telemetry.records import EventRecord
from repro.utils.timeutils import DAY

MITIGATION_COST = 2 / 60.0


@pytest.fixture(scope="module")
def traces(feature_tracks, job_sampler):
    """Full-range traces of the small log (serving covers the whole stream)."""
    t_max = max(
        float(track.times[-1]) for track in feature_tracks.values() if len(track)
    )
    return build_traces(feature_tracks, job_sampler, 0.0, t_max + 1.0, seed=97)


@pytest.fixture(scope="module")
def jobs(traces):
    return TimelineJobProvider({trace.node: trace.timeline for trace in traces})


@pytest.fixture(scope="module")
def sc20_policy(feature_tracks):
    dataset = build_prediction_dataset(
        feature_tracks, prediction_window_seconds=DAY, t_start=0.0, t_end=50 * DAY
    )
    forest = train_sc20_forest(dataset, n_estimators=8, max_depth=6, seed=5)
    return SC20RandomForestPolicy(forest, threshold=0.4)


def _rl_policy(normalizer, seed, mitigate_bias=0.0):
    agent = DDDQNAgent(
        normalizer.state_dim, DQNConfig(hidden_sizes=(24, 12), seed=seed)
    )
    agent.online.advantage_b[:] = [-mitigate_bias, 0.0]
    agent.target.copy_from(agent.online)
    return RLPolicy(agent, normalizer)


def _assert_serve_matches_offline(
    log, traces, jobs, policy, restartable, config=None, speed=None
):
    """Serve the log and pin decisions + cost totals against the replay."""
    config = config or ServeConfig(
        mitigation_cost_node_hours=MITIGATION_COST, restartable=restartable
    )
    report = serve_log(log, policy, jobs, config, speed=speed)

    masks = replay_decision_masks(traces, policy, restartable=restartable)
    assert set(report.masks) == {trace.node for trace in traces}
    for trace, mask in zip(traces, masks):
        assert np.array_equal(report.masks[trace.node], mask), (
            policy.name,
            trace.node,
        )

    evaluation = evaluate_policy(
        traces,
        policy,
        MITIGATION_COST,
        restartable=restartable,
        include_training_cost=False,
    )
    assert report.ue_cost_node_hours == evaluation.costs.ue_cost
    assert report.mitigation_cost_node_hours == evaluation.costs.mitigation_cost
    assert report.n_mitigations == evaluation.costs.n_mitigations
    assert report.n_ues == evaluation.costs.n_ues
    assert report.n_decision_points == evaluation.n_decision_points
    assert report.n_steps == sum(len(trace) for trace in traces)
    return report


class TestOfflineEquivalence:
    """Serve == evaluate_policy, bit for bit (the ISSUE acceptance bar)."""

    @pytest.mark.parametrize("restartable", [True, False])
    def test_forest_policy(self, reduced_error_log, traces, jobs, sc20_policy, restartable):
        report = _assert_serve_matches_offline(
            reduced_error_log, traces, jobs, sc20_policy, restartable
        )
        assert report.mean_batch_size > 1.0

    @pytest.mark.parametrize("restartable", [True, False])
    def test_rl_policy(self, reduced_error_log, traces, jobs, normalizer, restartable):
        policy = _rl_policy(normalizer, seed=17)
        report = _assert_serve_matches_offline(
            reduced_error_log, traces, jobs, policy, restartable
        )
        assert report.n_mitigations > 0 or report.n_decision_points > 0

    def test_rl_policy_dense_mitigation(self, reduced_error_log, traces, jobs, normalizer):
        """A mitigate-biased head exercises the cost-reset feedback densely."""
        policy = _rl_policy(normalizer, seed=20, mitigate_bias=3.0)
        report = _assert_serve_matches_offline(
            reduced_error_log, traces, jobs, policy, True
        )
        assert report.n_mitigations > 0

    @pytest.mark.parametrize("restartable", [True, False])
    def test_myopic_cost_feedback(
        self, reduced_error_log, traces, jobs, sc20_policy, restartable
    ):
        policy = MyopicRFPolicy(sc20_policy, MITIGATION_COST)
        _assert_serve_matches_offline(
            reduced_error_log, traces, jobs, policy, restartable
        )

    def test_static_policies(self, reduced_error_log, traces, jobs):
        always = _assert_serve_matches_offline(
            reduced_error_log, traces, jobs, AlwaysMitigatePolicy(), True
        )
        assert always.n_mitigations == always.n_decision_points
        never = _assert_serve_matches_offline(
            reduced_error_log, traces, jobs, NeverMitigatePolicy(), True
        )
        assert never.n_mitigations == 0

    def test_decide_only_policy_uses_the_scalar_fallback(
        self, reduced_error_log, traces, jobs
    ):
        """The base-class decide_nodes loop serves decide()-only policies."""

        class _ThresholdOnCost(MitigationPolicy):
            name = "Cost-threshold"
            cost_dependent = True

            def decide(self, context) -> bool:
                return context.ue_cost > 5.0

        _assert_serve_matches_offline(
            reduced_error_log, traces, jobs, _ThresholdOnCost(), True
        )


class TestBatchingInvariance:
    """max_batch / max_delay shape latency, never decisions."""

    def test_decisions_invariant_under_batch_knobs(
        self, reduced_error_log, jobs, sc20_policy
    ):
        reports = [
            serve_log(
                reduced_error_log,
                sc20_policy,
                jobs,
                ServeConfig(
                    mitigation_cost_node_hours=MITIGATION_COST,
                    max_batch=max_batch,
                    max_delay_seconds=max_delay,
                ),
            )
            for max_batch, max_delay in [(1, 0.0), (8, 0.01), (1024, 0.5)]
        ]
        reference = reports[0]
        for report in reports[1:]:
            assert set(report.masks) == set(reference.masks)
            for node in reference.masks:
                assert np.array_equal(report.masks[node], reference.masks[node])
            assert report.ue_cost_node_hours == reference.ue_cost_node_hours
            assert report.n_mitigations == reference.n_mitigations
        # max_batch=1 degenerates to scalar serving; the wide config batches.
        assert reference.mean_batch_size == 1.0
        assert reports[2].mean_batch_size > 1.0

    def test_throttled_replay_matches_unthrottled(self, reduced_error_log, jobs):
        """Real-time pacing (the storm mode) changes timing, not decisions."""
        span = reduced_error_log.time[-1] - reduced_error_log.time[0]
        throttled = serve_log(
            reduced_error_log,
            AlwaysMitigatePolicy(),
            jobs,
            ServeConfig(mitigation_cost_node_hours=MITIGATION_COST),
            speed=float(span) / 0.2,  # whole log in ~200 ms of wall time
        )
        unthrottled = serve_log(
            reduced_error_log,
            AlwaysMitigatePolicy(),
            jobs,
            ServeConfig(mitigation_cost_node_hours=MITIGATION_COST),
        )
        assert throttled.n_steps == unthrottled.n_steps
        for node in unthrottled.masks:
            assert np.array_equal(throttled.masks[node], unthrottled.masks[node])
        assert throttled.ue_cost_node_hours == unthrottled.ue_cost_node_hours


def _mid_window_mitigations(report) -> int:
    """Mitigations a tick decided with more of the node's steps after them."""
    windows = {}
    for record in report.decisions:
        if not record.is_ue:
            windows.setdefault((record.tick, record.node), []).append(record.mitigate)
    return sum(sum(window[:-1]) for window in windows.values())


class TestStormWindows:
    """A tick resolves each ready node's whole pending window, exactly."""

    @pytest.mark.parametrize("paced", [False, True], ids=["unthrottled", "paced"])
    @pytest.mark.parametrize("max_batch", [1, 2, 8, 64])
    def test_rl_windows_match_offline(
        self, reduced_error_log, traces, jobs, normalizer, max_batch, paced
    ):
        policy = _rl_policy(normalizer, seed=20, mitigate_bias=3.0)
        config = ServeConfig(
            mitigation_cost_node_hours=MITIGATION_COST, max_batch=max_batch
        )
        span = float(reduced_error_log.time[-1] - reduced_error_log.time[0])
        report = _assert_serve_matches_offline(
            reduced_error_log,
            traces,
            jobs,
            policy,
            True,
            config,
            speed=span / 0.2 if paced else None,
        )
        if max_batch > 1 and not paced:
            # The cost feedback really runs inside windows.
            assert _mid_window_mitigations(report) > 0

    def test_a_node_with_k_pending_steps_is_decided_in_one_tick(self, normalizer):
        k = 12
        records = [
            EventRecord(time=120.0 * i, node=3, dimm=0, ce_count=1) for i in range(k)
        ]
        policy = _rl_policy(normalizer, seed=20, mitigate_bias=3.0)
        service = DecisionService(
            policy,
            ConstantJobProvider(n_nodes=8.0),
            ServeConfig(
                mitigation_cost_node_hours=MITIGATION_COST, max_delay_seconds=60.0
            ),
        )
        report = service.serve(records)
        assert report.n_ticks == 1
        assert report.batch_sizes.tolist() == [k] == [report.n_decision_points]
        # The same steps one tick per step decide the same.
        one_by_one = DecisionService(
            policy,
            ConstantJobProvider(n_nodes=8.0),
            ServeConfig(
                mitigation_cost_node_hours=MITIGATION_COST,
                max_batch=1,
                max_delay_seconds=0.0,
            ),
        ).serve(records)
        assert one_by_one.n_ticks == k
        assert np.array_equal(one_by_one.masks[3], report.masks[3])
        assert one_by_one.ue_cost_node_hours == report.ue_cost_node_hours

    def test_a_rejected_row_raises_the_record_message(self, reduced_error_log, jobs):
        columns = {
            name: getattr(reduced_error_log, name).copy() for name in ErrorLog.__slots__
        }
        bad = 1500
        columns["kind"][bad] = 9
        log = ErrorLog(**columns)
        with pytest.raises(ValueError) as expected:
            log.record(bad)
        with pytest.raises(ValueError) as raised:
            serve_log(log, AlwaysMitigatePolicy(), jobs)
        assert str(raised.value) == str(expected.value)


class TestJobProviders:
    def test_sampled_provider_reconstructs_build_traces_timelines(
        self, traces, job_sampler
    ):
        """Same sampler + seed + range => the offline timelines, node by node."""
        t_max = max(float(trace.times[-1]) for trace in traces)
        provider = SampledJobProvider(job_sampler, 0.0, t_max + 1.0, seed=97)
        for trace in traces:
            timeline = provider.timeline_for(trace.node)
            assert np.array_equal(timeline.starts, trace.timeline.starts)
            assert np.array_equal(timeline.durations, trace.timeline.durations)
            assert np.array_equal(timeline.n_nodes, trace.timeline.n_nodes)
            # Cached: the provider must answer a stable timeline.
            assert provider.timeline_for(trace.node) is timeline

    def test_timeline_provider_unknown_node(self, jobs):
        with pytest.raises(KeyError, match="no job timeline"):
            jobs.timeline_for(10**9)

    def test_timeline_provider_fallback(self):
        provider = TimelineJobProvider({}, fallback=ConstantJobProvider(n_nodes=4.0))
        timeline = provider.timeline_for(3)
        assert timeline.potential_ue_cost(3600.0, None, True) == 4.0

    def test_constant_provider_cost_grows_from_job_start(self):
        provider = ConstantJobProvider(n_nodes=2.0, job_start=0.0)
        timeline = provider.timeline_for(0)
        assert timeline.potential_ue_cost(7200.0, None, False) == 4.0
        assert timeline.potential_ue_cost(7200.0, 3600.0, True) == 2.0


class TestServiceBehavior:
    def test_unservable_policies_are_rejected(self, reduced_error_log, jobs):
        for policy in (OraclePolicy(), PeriodicMitigatePolicy(12.0)):
            with pytest.raises(NotImplementedError):
                serve_log(reduced_error_log, policy, jobs)

    def test_out_of_order_stream_is_rejected(self, jobs):
        from repro.telemetry.records import EventKind, EventRecord

        records = [
            EventRecord(time=100.0, node=0, dimm=1, ce_count=1),
            EventRecord(time=50.0, node=1, dimm=2, ce_count=1),
        ]
        with pytest.raises(ValueError, match="time-ordered"):
            serve_log(records, AlwaysMitigatePolicy(), ConstantJobProvider())

    def test_decision_log_covers_every_step(self, reduced_error_log, jobs, sc20_policy):
        report = serve_log(
            reduced_error_log,
            sc20_policy,
            jobs,
            ServeConfig(mitigation_cost_node_hours=MITIGATION_COST),
        )
        assert len(report.decisions) == report.n_steps
        n_ue = sum(1 for record in report.decisions if record.is_ue)
        n_mitigate = sum(1 for record in report.decisions if record.mitigate)
        assert n_ue == report.n_ues
        assert n_mitigate == report.n_mitigations
        payload = report.decisions[0].to_dict()
        assert set(payload) == {"tick", "node", "time", "ue_cost", "mitigate", "is_ue"}
        # Per node, the log is in step-time order (the per-node decision log).
        by_node = {}
        for record in report.decisions:
            by_node.setdefault(record.node, []).append(record.time)
        for times in by_node.values():
            assert times == sorted(times)

    def test_keep_decisions_off_drops_the_log_only(
        self, reduced_error_log, jobs, sc20_policy
    ):
        slim = serve_log(
            reduced_error_log,
            sc20_policy,
            jobs,
            ServeConfig(
                mitigation_cost_node_hours=MITIGATION_COST, keep_decisions=False
            ),
        )
        full = serve_log(
            reduced_error_log,
            sc20_policy,
            jobs,
            ServeConfig(mitigation_cost_node_hours=MITIGATION_COST),
        )
        assert slim.decisions == []
        assert slim.n_mitigations == full.n_mitigations
        assert slim.ue_cost_node_hours == full.ue_cost_node_hours

    def test_report_telemetry(self, reduced_error_log, jobs):
        report = serve_log(reduced_error_log, AlwaysMitigatePolicy(), jobs)
        assert report.n_ticks == len(report.batch_sizes)
        assert report.n_ticks == len(report.tick_latencies)
        assert int(report.batch_sizes.sum()) == report.n_decision_points
        histogram = report.batch_size_histogram()
        assert sum(histogram.values()) == report.n_ticks
        assert report.latency_seconds(99) >= report.latency_seconds(50) >= 0.0
        assert report.decisions_per_second > 0
        assert "decisions/s" in report.summary()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServeConfig(max_delay_seconds=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(mitigation_cost_node_hours=-1.0)
        with pytest.raises(ValueError, match="max_batch must be an integer"):
            ServeConfig(max_batch=2.5)
        for field_name in ("max_delay_seconds", "mitigation_cost_node_hours"):
            with pytest.raises(ValueError, match=field_name):
                ServeConfig(**{field_name: float("nan")})

    def test_source_errors_propagate(self, jobs):
        class _FailingSource:
            async def __aiter__(self):
                from repro.telemetry.records import EventRecord

                yield EventRecord(time=1.0, node=0, dimm=0, ce_count=1)
                raise RuntimeError("stream went away")

        service = DecisionService(
            AlwaysMitigatePolicy(), ConstantJobProvider(), ServeConfig()
        )
        with pytest.raises(RuntimeError, match="stream went away"):
            asyncio.run(service.run(_FailingSource()))


class TestDrivers:
    """``serve`` (plain iterables) and ``run`` (async sources) share one core."""

    @staticmethod
    def _ce(time, node=0):
        return EventRecord(time=time, node=node, dimm=0, ce_count=1)

    @staticmethod
    def _service(policy=None, **config):
        return DecisionService(
            policy or AlwaysMitigatePolicy(), ConstantJobProvider(), ServeConfig(**config)
        )

    def test_in_memory_serving_never_creates_an_event_loop(
        self, reduced_error_log, jobs, monkeypatch
    ):
        def no_loop():
            raise AssertionError("serve_log(speed=None) created an event loop")

        monkeypatch.setattr(asyncio.events, "new_event_loop", no_loop)
        monkeypatch.setattr(asyncio, "new_event_loop", no_loop)
        report = serve_log(reduced_error_log, AlwaysMitigatePolicy(), jobs)
        assert report.n_events == len(reduced_error_log)

    def test_idle_source_ticks_at_max_delay(self):
        order = []

        class _Logged(AlwaysMitigatePolicy):
            def decide_nodes(self, features, ue_costs, times=None, nodes=None):
                order.append(("decide", times.tolist()))
                return super().decide_nodes(features, ue_costs, times=times, nodes=nodes)

        async def idle_source():
            # The second record closes the first one's merge group, so one
            # step is ready; then the source goes quiet well past max_delay.
            for record in (self._ce(0.0), self._ce(120.0)):
                order.append(("yield", record.time))
                yield record
            await asyncio.sleep(0.3)
            order.append(("yield", 240.0))
            yield self._ce(240.0)

        service = self._service(_Logged(), max_delay_seconds=0.02)
        report = asyncio.run(service.run(idle_source()))
        assert order[:4] == [
            ("yield", 0.0),
            ("yield", 120.0),
            ("decide", [0.0]),
            ("yield", 240.0),
        ]
        assert report.n_events == 3 and report.n_decision_points == 3

    def test_a_due_tick_waits_for_the_records_the_source_already_has(self):
        order = []

        class _Logged(AlwaysMitigatePolicy):
            def decide_nodes(self, features, ue_costs, times=None, nodes=None):
                order.append("decide")
                return super().decide_nodes(features, ue_costs, times=times, nodes=nodes)

        async def bursty_source():
            # t=120 makes two nodes ready (a tick is due at max_batch=1), but
            # the source still has two records in hand: they come first.
            for burst in ((self._ce(0.0), self._ce(0.0, 1), self._ce(120.0),
                           self._ce(121.0, 2), self._ce(122.0, 2)),
                          (self._ce(300.0),)):
                for record in burst:
                    order.append(record.time)
                    yield record
                await asyncio.sleep(0.05)

        service = self._service(_Logged(), max_batch=1, max_delay_seconds=60.0)
        report = asyncio.run(service.run(bursty_source()))
        assert order[:7] == [0.0, 0.0, 120.0, 121.0, 122.0, "decide", "decide"]
        assert report.n_ticks == order.count("decide")

    def test_a_failing_max_delay_tick_ends_run_on_an_idle_source(self):
        class _Broken(AlwaysMitigatePolicy):
            def decide_nodes(self, features, ue_costs, times=None, nodes=None):
                raise RuntimeError("policy went away")

        async def idle_source():
            yield self._ce(0.0)
            yield self._ce(120.0)
            await asyncio.sleep(3600)  # the source never speaks again

        async def scenario():
            task = asyncio.ensure_future(
                self._service(_Broken(), max_delay_seconds=0.02).run(idle_source())
            )
            done, _ = await asyncio.wait((task,), timeout=5.0)
            task.cancel()  # a no-op once it has ended
            assert done, "run kept waiting on the source after its tick failed"
            return task.exception()

        error = asyncio.run(scenario())
        assert isinstance(error, RuntimeError) and str(error) == "policy went away"

    def test_cancelled_follow_run_leaves_no_task_and_closes_the_source(self, tmp_path):
        path = tmp_path / "live.log"
        path.write_text(
            "CE time=1.0 node=0 dimm=0 count=1\nCE time=100.0 node=0 dimm=0 count=1\n"
        )
        records = TailSource(path, follow=True, poll_seconds=0.01).__aiter__()

        async def scenario():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(self._service().run(records), 0.1)
            return asyncio.all_tasks() - {asyncio.current_task()}

        assert asyncio.run(scenario()) == set()
        assert records.ag_frame is None  # closed, and its file with it

    def test_service_is_single_use(self):
        records = [self._ce(0.0), self._ce(120.0)]
        used = self._service()
        assert used.serve(records).n_events == 2
        served_async = self._service()
        assert asyncio.run(served_async.run(ReplaySource(records))).n_events == 2
        for service in (used, served_async):
            with pytest.raises(RuntimeError, match="create a new one"):
                service.serve(records)
            with pytest.raises(RuntimeError, match="create a new one"):
                asyncio.run(service.run(ReplaySource(records)))


class TestServingCostHooks:
    """What keeps a served event cheap, and what perfbench instruments."""

    def test_report_repr_is_constant_size(self, reduced_error_log, jobs):
        # asyncio.run formats its main task (result included) at exit on
        # CPython 3.11/3.12, so the report's repr must not grow with the
        # stream; asserted on the repr itself to hold on every version.
        config = ServeConfig(keep_decisions=True)
        full = serve_log(reduced_error_log, AlwaysMitigatePolicy(), jobs, config)
        prefix = serve_log(
            reduced_error_log.select(np.arange(100)), AlwaysMitigatePolicy(), jobs, config
        )
        assert len(full.decisions) == full.n_steps > len(prefix.decisions) > 0
        for report in (full, prefix):
            text = repr(report)
            assert len(text) < 300
            assert "array(" not in text
            assert "DecisionRecord" not in text
        # Only the counts' digits may differ between the two runs.
        assert re.sub(r"\d+", "#", repr(full)) == re.sub(r"\d+", "#", repr(prefix))

    def test_absorb_is_called_once_per_served_event(
        self, reduced_error_log, jobs, sc20_policy, monkeypatch
    ):
        config = ServeConfig(mitigation_cost_node_hours=MITIGATION_COST)
        plain = serve_log(reduced_error_log, sc20_policy, jobs, config)

        original = OnlineFeatureState.absorb
        calls = []

        def counting(self, record):
            calls.append(record.time)
            return original(self, record)

        monkeypatch.setattr(OnlineFeatureState, "absorb", counting)
        wrapped = serve_log(reduced_error_log, sc20_policy, jobs, config)
        assert len(calls) == wrapped.n_events == len(reduced_error_log)
        assert set(wrapped.masks) == set(plain.masks)
        for node, mask in plain.masks.items():
            assert np.array_equal(wrapped.masks[node], mask), node
        assert wrapped.ue_cost_node_hours == plain.ue_cost_node_hours
