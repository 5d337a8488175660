"""The sampling space of the random hyperparameter search (Section 4.1).

The paper tunes the learning rate, the discount factor γ, the update and
synchronisation frequencies of the two networks and some prioritized-replay
parameters with a first round of random search (60 configurations), followed
by a second, narrowed round around the best configuration; the agent finally
selected is the best performer on the validation set.  Both rounds run as
executor tasks (:func:`repro.evaluation.pipeline.build_split_tasks`); this
module holds only the space they sample from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class HyperparameterSpace:
    """Sampling ranges of the tuned hyperparameters.

    ``learning_rate`` and ``gamma_complement`` (1 − γ) are sampled
    log-uniformly; frequencies and batch sizes are drawn from discrete sets.
    """

    learning_rate: Tuple[float, float] = (1e-4, 5e-3)
    gamma_complement: Tuple[float, float] = (5e-3, 2e-1)
    batch_sizes: Sequence[int] = (16, 32, 64)
    train_frequencies: Sequence[int] = (1, 2, 4, 8)
    target_sync_frequencies: Sequence[int] = (100, 250, 500, 1000)
    per_alphas: Tuple[float, float] = (0.4, 0.8)
    per_beta0s: Tuple[float, float] = (0.3, 0.6)

    def sample(self, rng: np.random.Generator) -> Dict[str, object]:
        """Draw one hyperparameter assignment."""
        lr = float(np.exp(rng.uniform(*np.log(self.learning_rate))))
        gamma = 1.0 - float(np.exp(rng.uniform(*np.log(self.gamma_complement))))
        return {
            "learning_rate": lr,
            "gamma": gamma,
            "batch_size": int(rng.choice(self.batch_sizes)),
            "train_frequency": int(rng.choice(self.train_frequencies)),
            "target_sync_frequency": int(rng.choice(self.target_sync_frequencies)),
            "per_alpha": float(rng.uniform(*self.per_alphas)),
            "per_beta0": float(rng.uniform(*self.per_beta0s)),
        }

    def narrowed_around(
        self, best: Dict[str, object], shrink: float = 0.5
    ) -> "HyperparameterSpace":
        """Return a space centred on ``best`` with ranges shrunk by ``shrink``."""
        if not (0.0 < shrink <= 1.0):
            raise ValueError("shrink must be in (0, 1]")

        def _shrink_log_range(bounds: Tuple[float, float], centre: float):
            lo, hi = bounds
            ratio = (hi / lo) ** (shrink / 2.0)
            new_lo = max(lo, centre / ratio)
            new_hi = min(hi, centre * ratio)
            if new_lo >= new_hi:
                return (lo, hi)
            return (new_lo, new_hi)

        lr = _shrink_log_range(self.learning_rate, float(best["learning_rate"]))
        gamma_c = _shrink_log_range(
            self.gamma_complement, max(1e-4, 1.0 - float(best["gamma"]))
        )
        return replace(self, learning_rate=lr, gamma_complement=gamma_c)
