"""Policy interface shared by the RL agent and every baseline.

The evaluation harness replays the test portion of the error log and asks a
policy, at every merged (non-UE) event, whether to trigger a mitigation.  The
policy sees a :class:`DecisionContext` carrying the Table 1 telemetry
features and the potential UE cost of the job running on the node.  The
Oracle baseline additionally needs to know whether the current event is the
last one before a UE — a field real policies must never read (it encodes the
future); it exists only to quantify the room for improvement (Section 4.2).

A policy answers that question through three methods:

* :meth:`MitigationPolicy.decide` — one event; the replay's fallback loop.
* :meth:`MitigationPolicy.decide_rows` — any rows of the *panel* fixed by
  :meth:`MitigationPolicy.prepare_traces` (the replay's traces, their
  events concatenated in order); the batched offline replay asks for the
  whole panel once and then for the rows of each renewal-walk round.
* :meth:`MitigationPolicy.decide_nodes` — the pending steps of several
  nodes; one round of a serving tick.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.dqn import DDDQNAgent
from repro.core.features import StateNormalizer
from repro.core.mdp import Action


@dataclass(frozen=True)
class DecisionContext:
    """Everything a policy may observe at one decision point."""

    #: Time of the merged event, seconds.
    time: float
    #: Node on which the event was observed.
    node: int
    #: Raw (unnormalised) Table 1 telemetry feature vector.
    features: np.ndarray
    #: Potential UE cost at this instant, node–hours (Equation 3).
    ue_cost: float
    #: Oracle-only flag: is this the last event before a UE on this node?
    is_last_event_before_ue: bool = False
    #: Index of this event within the evaluation trace currently replayed
    #: (lets policies look up per-trace caches built by ``prepare_trace``).
    event_index: int = -1


class MitigationPolicy(abc.ABC):
    """A decision rule mapping telemetry state to mitigate / do-nothing."""

    #: Human-readable name used in reports and plots.
    name: str = "policy"

    #: Whether :meth:`decide` reads ``DecisionContext.ue_cost``.  The
    #: vectorized evaluation runner uses this to tell apart policies whose
    #: whole-trace decisions can be computed in one batch (False) from those
    #: that must be resolved through the mitigation-cost feedback loop when
    #: mitigations reset the potential UE cost (True; see
    #: :func:`repro.evaluation.runner.evaluate_policy`).
    cost_dependent: bool = False

    @abc.abstractmethod
    def decide(self, context: DecisionContext) -> bool:
        """Return True to trigger a mitigation at this event."""

    def decide_rows(
        self, rows: np.ndarray, ue_costs: np.ndarray
    ) -> Optional[np.ndarray]:
        """Vectorised :meth:`decide` over rows of the prepared replay panel.

        The panel is the events of the traces last handed to
        :meth:`prepare_traces`, concatenated in order; ``rows`` indexes it
        (any subset, in any order the runner needs) and ``ue_costs`` holds
        the potential UE cost of each row, aligned with ``rows``.
        Implementations return a boolean array aligned with ``rows`` whose
        entries at non-UE events equal what sequential :meth:`decide` calls
        would have returned under those costs (entries at UE events are
        ignored — the runner never consults the policy there), or ``None``
        to decline, which makes the evaluation runner resolve the whole
        replay with sequential :meth:`decide` calls instead.  The base implementation
        declines: policies that only implement :meth:`decide` keep working
        unchanged.
        """
        return None

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One decision per row of concurrent per-node feature states.

        This is the *serving* entry point: each round of a micro-batch tick
        hands the policy the feature vectors and potential UE costs of the
        undecided steps of several nodes, in step order per node — unlike
        :meth:`decide_rows`, the rows are not events of a prepared panel.
        Returns a boolean array aligned with the rows.

        The base implementation loops :meth:`decide` with one
        :class:`DecisionContext` per row, which is correct for any policy
        whose ``decide`` is a pure function of the context (every built-in
        except the stateful periodic baseline).  Batch-backed policies
        override it so one model evaluation serves the whole tick.
        """
        features = np.asarray(features, dtype=float)
        costs = np.asarray(ue_costs, dtype=float)
        out = np.empty(len(features), dtype=bool)
        for i in range(len(features)):
            out[i] = self.decide(
                DecisionContext(
                    time=float(times[i]) if times is not None else 0.0,
                    node=int(nodes[i]) if nodes is not None else -1,
                    features=features[i],
                    ue_cost=float(costs[i]),
                )
            )
        return out

    def reset(self) -> None:
        """Called before each trace of the ``decide()`` loop (stateless by default)."""

    def prepare_trace(self, features: np.ndarray) -> None:
        """Optional ``decide()``-loop hook: pre-compute per-trace data.

        The runner's ``decide()`` loop calls this once per node trace, after
        :meth:`reset`, with the full ``(n_events, N_FEATURES)`` telemetry
        feature matrix, so that policies backed by batch predictors (the
        random forests) can vectorise their per-event :meth:`decide` work.
        The batched path never calls it.
        """

    def prepare_traces(self, traces) -> None:
        """Fix the panel that :meth:`decide_rows` answers.

        The vectorized evaluation runner calls this once with the full list
        of :class:`~repro.evaluation.runner.EvaluationTrace` objects before
        replaying them — the panel is their events concatenated in order —
        and once with ``()`` afterwards, which releases whatever the policy
        cached.  Policies compute their per-row inputs here (one forest
        predict, one feature normalisation) and index them with ``rows``.
        The ``decide()`` loop never calls it.
        """

    @property
    def training_cost_node_hours(self) -> float:
        """Training + validation cost charged by the cost–benefit analysis."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class RLPolicy(MitigationPolicy):
    """Greedy wrapper around a trained :class:`DDDQNAgent`."""

    cost_dependent = True  # the UE cost is part of the network's state

    def __init__(
        self,
        agent: DDDQNAgent,
        normalizer: Optional[StateNormalizer] = None,
        name: str = "RL",
        training_cost_node_hours: float = 0.0,
    ) -> None:
        self.agent = agent
        self.normalizer = normalizer or StateNormalizer()
        self.name = name
        self._training_cost = float(training_cost_node_hours)
        #: Feature rows of the prepared panel (see :meth:`prepare_traces`):
        #: normalised for the stock normalizer, raw for a custom one.
        self._panel: Optional[np.ndarray] = None

    def decide(self, context: DecisionContext) -> bool:
        state = self.normalizer.state_vector(context.features, context.ue_cost)
        return self.agent.act(state, explore=False) == Action.MITIGATE

    def prepare_traces(self, traces) -> None:
        """Stack the panel's feature rows, normalised once where possible.

        The cost column is the only state component that changes between the
        decision core's speculative windows, so the stock
        :class:`StateNormalizer` transform of the feature columns runs once
        per panel here; it is element-wise, so the rows are bit-identical to
        normalising each state on its own.  A custom normalizer is not known
        to be separable: its rows stay raw and :meth:`decide_rows` hands
        them to :meth:`decide_nodes`.  Called with an empty sequence, this
        releases the panel.
        """
        self._panel = None
        if not traces:
            return
        features = np.concatenate([trace.features for trace in traces])
        if type(self.normalizer) is StateNormalizer:
            features = self.normalizer.transform_features(features)
        self._panel = features

    def decide_rows(
        self, rows: np.ndarray, ue_costs: np.ndarray
    ) -> Optional[np.ndarray]:
        """One greedy Q-network forward over rows of the prepared panel.

        The state normalisation is element-wise (bit-identical to the
        per-event path), but the matrix products are not: batched GEMMs
        (and the reduced advantage-difference head below) round differently
        from ``decide()``'s single-row products, so a decision can diverge
        whenever the two actions' Q-values are within rounding noise of
        each other — not only on exact ties.  For trained (non-degenerate)
        agents such near-ties are vanishingly rare; the scalar-vs-vector
        equivalence suite and the golden harness pin that the repo's
        experiments decide identically.  Note the golden fingerprints were
        already BLAS-dependent before batched evaluation existed (training
        itself is batched), so this does not add a new class of
        machine-dependence.
        """
        if self._panel is None:
            return None
        costs = np.asarray(ue_costs, dtype=float)
        if type(self.normalizer) is not StateNormalizer:
            return self.decide_nodes(self._panel[rows], costs)
        # The cost column's transform (log1p of the clamped cost) is
        # replicated exactly.
        states = np.empty((rows.size, self._panel.shape[1] + 1))
        states[:, :-1] = self._panel[rows]
        states[:, -1] = np.log1p(np.maximum(costs, 0.0))
        return self._greedy_decisions(states)

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One Q-network forward for a whole micro-batch of nodes.

        Same element-wise state normalisation as ``decide()``, so each row's
        state is bit-identical to what it would build; the batched-GEMM
        rounding caveat of :meth:`decide_rows` applies unchanged.
        """
        costs = np.asarray(ue_costs, dtype=float)
        states = self.normalizer.transform(
            np.concatenate(
                [np.asarray(features, dtype=float), costs[:, None]], axis=1
            )
        )
        return self._greedy_decisions(states)

    def _greedy_decisions(self, states: np.ndarray) -> np.ndarray:
        """Greedy decision = argmax over Q-values, for a batch of states.

        The dueling combine adds the same per-row constant (V - mean
        advantage) to both actions, so the argmax reduces to the sign of
        the advantage difference — one matrix-vector product instead of
        both head products.  (With two actions, ``decide()``'s argmax picks
        NOTHING on an exact tie; ``> 0`` preserves that.)
        """
        network = self.agent.online
        if network.n_actions != 2:  # pragma: no cover - N_ACTIONS is 2
            q_values = network.forward(states)
            return np.argmax(q_values, axis=1) == int(Action.MITIGATE)
        hidden = states
        for weights, biases in zip(network.weights, network.biases):
            hidden = np.maximum(hidden @ weights + biases, 0.0)
        mitigate = int(Action.MITIGATE)
        other = 1 - mitigate
        advantage_delta = hidden @ (
            network.advantage_w[:, mitigate] - network.advantage_w[:, other]
        ) + (network.advantage_b[mitigate] - network.advantage_b[other])
        return advantage_delta > 0.0

    @property
    def training_cost_node_hours(self) -> float:
        return self._training_cost


class CallablePolicy(MitigationPolicy):
    """Adapter turning a plain function ``context -> bool`` into a policy."""

    def __init__(self, fn, name: str = "custom") -> None:
        self._fn = fn
        self.name = name

    def decide(self, context: DecisionContext) -> bool:
        return bool(self._fn(context))


class FallbackPolicy(MitigationPolicy):
    """Delegate policy re-labelled under another approach's name.

    A learned approach that cannot be trained yet (no history precedes the
    test range) still has to be charged *some* behaviour; the experiment
    substitutes a cheap fallback — typically :class:`NeverMitigatePolicy`,
    which is also what an untrained model converges to — but records the
    evaluation under the learned approach's name.  No training cost is
    charged: nothing was trained.
    """

    def __init__(self, inner: MitigationPolicy, name: str) -> None:
        self.inner = inner
        self.name = name

    @property
    def cost_dependent(self) -> bool:
        return self.inner.cost_dependent

    def reset(self) -> None:
        self.inner.reset()

    def prepare_trace(self, features: np.ndarray) -> None:
        self.inner.prepare_trace(features)

    def prepare_traces(self, traces) -> None:
        self.inner.prepare_traces(traces)

    def decide(self, context: DecisionContext) -> bool:
        return self.inner.decide(context)

    def decide_rows(
        self, rows: np.ndarray, ue_costs: np.ndarray
    ) -> Optional[np.ndarray]:
        return self.inner.decide_rows(rows, ue_costs)

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self.inner.decide_nodes(features, ue_costs, times=times, nodes=nodes)
