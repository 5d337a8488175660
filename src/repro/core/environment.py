"""Log-replay environment for training the mitigation agent (Section 3.3).

An episode is a "run" of the agent on a single node: the node is chosen at
random, a random sequence of jobs (node-count weighted) is assigned to it,
and the agent is invoked at every merged telemetry event between the start
and the end of the training range.  The telemetry features do not depend on
the agent's actions (they come from the historical log); the potential UE
cost does — it resets whenever a mitigation is performed (if the mitigation
allows restart) and keeps accumulating otherwise.  If the next event is a UE
the episode terminates and the reward includes the full UE cost at the UE's
timestamp.  So each node's feature rows are normalised once, in one batch,
and a step only computes its state's UE-cost slot: the transform is
element-wise, so states are bit-identical to ``normalizer.state_vector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.features import NodeFeatureTrack, StateNormalizer
from repro.core.mdp import Action, EpisodeSummary, compute_reward
from repro.utils.rng import as_generator
from repro.utils.validation import check_non_negative
from repro.workload.sampling import JobSequenceSampler, NodeJobTimeline


@dataclass
class _EpisodeState:
    """Mutable per-episode bookkeeping."""

    node: int
    track: NodeFeatureTrack
    timeline: NodeJobTimeline
    #: Track times and UE flags as lists; normalised rows (None if custom).
    times: List[float]
    is_ue: List[bool]
    states: Optional[np.ndarray]
    index: int = 0
    last_mitigation: Optional[float] = None
    n_mitigations: int = 0
    n_decisions: int = 0
    total_reward: float = 0.0
    mitigation_cost_paid: float = 0.0
    ue_cost_paid: float = 0.0


class MitigationEnv:
    """Replay environment exposing the MDP of Section 3.2.

    Parameters
    ----------
    tracks:
        Per-node feature tracks (see :func:`repro.core.features.build_feature_tracks`),
        already restricted to the time range to train on.
    job_sampler:
        Source of node-count-weighted job sequences (Section 3.3.3).
    mitigation_cost:
        Cost of one mitigation action in node–hours.
    restartable:
        Whether the job restarts from the mitigation point (checkpointing);
        if False the potential UE cost never resets (Section 3.2.1).
    t_start, t_end:
        Time range of the episodes.  Defaults to the range spanned by the
        tracks.
    normalizer:
        State normaliser shared with the policy wrapper.
    seed:
        RNG seed (episode node choice and job sequences).
    """

    def __init__(
        self,
        tracks: Dict[int, NodeFeatureTrack],
        job_sampler: JobSequenceSampler,
        mitigation_cost: float,
        restartable: bool = True,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
        normalizer: Optional[StateNormalizer] = None,
        seed=0,
    ) -> None:
        check_non_negative("mitigation_cost", mitigation_cost)
        usable = {
            node: track
            for node, track in tracks.items()
            if len(track) and track.n_decision_points > 0
        }
        if not usable:
            raise ValueError("no node has any decision point in the given tracks")
        self.tracks = usable
        self.job_sampler = job_sampler
        self.mitigation_cost = float(mitigation_cost)
        self.restartable = bool(restartable)
        self.normalizer = normalizer or StateNormalizer()
        self._rng = as_generator(seed, "environment")

        all_times = np.concatenate([t.times for t in usable.values()])
        self.t_start = float(t_start) if t_start is not None else float(all_times.min())
        self.t_end = float(t_end) if t_end is not None else float(all_times.max()) + 1.0
        self._nodes = np.asarray(sorted(usable.keys()))
        self._episode: Optional[_EpisodeState] = None
        self._node_cache: Dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    @property
    def state_dim(self) -> int:
        """Dimensionality of the (normalised) state vector."""
        return self.normalizer.state_dim

    @property
    def n_actions(self) -> int:
        return len(Action)

    @property
    def nodes(self) -> np.ndarray:
        """Nodes available for episodes."""
        return self._nodes.copy()

    # ------------------------------------------------------------------ #
    def reset(self, node: Optional[int] = None) -> np.ndarray:
        """Start a new episode and return the initial (normalised) state."""
        if node is None:
            node = int(self._rng.choice(self._nodes))
        elif node not in self.tracks:
            raise ValueError(f"node {node} has no events in this environment")
        node = int(node)
        timeline = self.job_sampler.sample_timeline(
            self.t_start, self.t_end, rng=self._rng
        )
        track = self.tracks[node]
        if node not in self._node_cache:  # normalise the node's rows once
            states = None
            if type(self.normalizer) is StateNormalizer:  # known element-wise
                states = np.zeros((len(track), self.normalizer.state_dim))
                features = states[:, :-1]
                self.normalizer.transform_features(track.features, out=features)
            self._node_cache[node] = (track.times.tolist(), track.is_ue.tolist(), states)
        ep = _EpisodeState(node, track, timeline, *self._node_cache[node])
        self._episode = ep
        # Skip any leading UE events (the agent is never invoked on them);
        # every kept track has a decision point, so one remains.
        while ep.is_ue[ep.index]:
            ep.index += 1
        return self._current_state()

    def _current_state(self) -> np.ndarray:
        ep = self._episode
        assert ep is not None
        ue_cost = ep.timeline.potential_ue_cost(
            ep.times[ep.index], ep.last_mitigation, self.restartable
        )
        if ep.states is None:
            return self.normalizer.state_vector(ep.track.features[ep.index], ue_cost)
        # The UE-cost slot's transform, as ``StateNormalizer.transform`` does it.
        state = ep.states[ep.index].copy()
        state[-1] = np.log1p(np.maximum(ue_cost, 0.0))
        return state

    # ------------------------------------------------------------------ #
    def step(self, action: int) -> Tuple[Optional[np.ndarray], float, bool, dict]:
        """Apply ``action`` at the current event and advance to the next one.

        Returns ``(next_state, reward, done, info)``.  ``next_state`` is
        ``None`` when ``done`` is True.
        """
        ep = self._episode
        if ep is None:
            raise RuntimeError("call reset() before step()")
        action = int(action)
        if action not in (0, 1):
            raise ValueError(f"action must be 0 or 1, got {action!r}")

        t_now = ep.times[ep.index]
        ep.n_decisions += 1
        if action == Action.MITIGATE:
            ep.last_mitigation = t_now
            ep.n_mitigations += 1
            ep.mitigation_cost_paid += self.mitigation_cost

        # Advance to the next event.
        ep.index += 1
        done = False
        ue_occurred = False
        ue_cost = 0.0
        next_state: Optional[np.ndarray] = None

        if ep.index >= len(ep.times):
            done = True
        elif ep.is_ue[ep.index]:
            ue_occurred = True
            done = True
            t_ue = ep.times[ep.index]
            ue_cost = ep.timeline.potential_ue_cost(
                t_ue, ep.last_mitigation, self.restartable
            )
            ep.ue_cost_paid += ue_cost
        else:
            next_state = self._current_state()

        reward = compute_reward(action, self.mitigation_cost, ue_occurred, ue_cost)
        # The mitigation cost of the action just taken is part of the reward;
        # avoid double counting it in the paid-cost bookkeeping above.
        ep.total_reward += reward

        info = {
            "node": ep.node,
            "time": t_now,
            "ue_occurred": ue_occurred,
            "ue_cost": ue_cost,
            "n_mitigations": ep.n_mitigations,
        }
        if done:
            info["episode"] = self.episode_summary()
        return next_state, reward, done, info

    # ------------------------------------------------------------------ #
    def episode_summary(self) -> EpisodeSummary:
        """Summary of the current (or just finished) episode."""
        ep = self._episode
        if ep is None:
            raise RuntimeError("no episode has been started")
        return EpisodeSummary(
            node=ep.node,
            n_steps=ep.n_decisions,
            n_mitigations=ep.n_mitigations,
            ue_occurred=ep.ue_cost_paid > 0,
            total_reward=ep.total_reward,
            mitigation_cost=ep.mitigation_cost_paid,
            ue_cost=ep.ue_cost_paid,
        )
