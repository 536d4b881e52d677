"""Monte Carlo exploration of the PL ratio space (paper Figure 9).

The paper validates its cost-model-driven ratio choice by running one
thousand PL executions with randomly generated ratio settings and showing
that (a) the cost model's pick lands very close to the best simulated run and
(b) per-run prediction error stays below ~15% for most runs.  This module
reproduces that experiment: it samples random ratio vectors, evaluates each
with both the cost model (estimated) and a caller-supplied measurement
function (the co-processing executor), and summarises the outcome as a CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .abstract import StepCost, estimate_series
from .batch import EstimateCache, shared_estimate_cache

#: Measurement callback: ratios -> measured (simulated) seconds.
MeasureFn = Callable[[Sequence[float]], float]


@dataclass
class MonteCarloSample:
    """One random ratio setting with its estimated and measured times."""

    ratios: list[float]
    estimated_s: float
    measured_s: float

    @property
    def relative_error(self) -> float:
        """Relative prediction error; NaN when the measurement is degenerate.

        A non-positive measured time carries no information about prediction
        quality, so it must not be counted as a perfect prediction.
        """
        if self.measured_s <= 0:
            return float("nan")
        return abs(self.estimated_s - self.measured_s) / self.measured_s


@dataclass
class MonteCarloStudy:
    """All samples of one Monte Carlo run plus the cost model's own pick."""

    samples: list[MonteCarloSample]
    chosen_ratios: list[float]
    chosen_measured_s: float
    chosen_estimated_s: float

    @property
    def measured_times(self) -> np.ndarray:
        return np.asarray([s.measured_s for s in self.samples], dtype=np.float64)

    @property
    def best_measured_s(self) -> float:
        return float(self.measured_times.min())

    @property
    def worst_measured_s(self) -> float:
        return float(self.measured_times.max())

    def cdf(self, n_points: int = 50) -> list[tuple[float, float]]:
        """(elapsed seconds, fraction of runs at most that slow) pairs."""
        times = np.sort(self.measured_times)
        if times.shape[0] == 0:
            return []
        points = np.linspace(times[0], times[-1], n_points)
        fractions = np.searchsorted(times, points, side="right") / times.shape[0]
        return list(zip(points.tolist(), fractions.tolist()))

    def chosen_percentile(self) -> float:
        """Fraction of random runs that are no faster than the model's pick."""
        times = self.measured_times
        if times.shape[0] == 0:
            return 0.0
        return float(np.mean(times >= self.chosen_measured_s))

    def error_quantile(self, quantile: float = 0.9) -> float:
        """Prediction-error quantile across the random runs.

        Degenerate samples (``relative_error`` NaN) are excluded; if every
        sample is degenerate the quantile itself is NaN.
        """
        errors = np.asarray([s.relative_error for s in self.samples])
        if errors.shape[0] == 0:
            return 0.0
        finite = errors[~np.isnan(errors)]
        if finite.shape[0] == 0:
            return float("nan")
        return float(np.quantile(finite, quantile))


def sample_ratio_vectors(
    n_steps: int,
    n_samples: int,
    seed: int = 2013,
    delta: float = 0.02,
) -> list[list[float]]:
    """Random ratio vectors quantised to the optimiser's delta grid."""
    if n_steps <= 0 or n_samples <= 0:
        raise ValueError("n_steps and n_samples must be positive")
    rng = np.random.default_rng(seed)
    levels = int(round(1.0 / delta))
    draws = rng.integers(0, levels + 1, size=(n_samples, n_steps))
    return (draws / levels).tolist()


def run_monte_carlo(
    steps: Sequence[StepCost],
    measure: MeasureFn,
    chosen_ratios: Sequence[float],
    n_samples: int = 1000,
    seed: int = 2013,
    delta: float = 0.02,
    cache: EstimateCache | None = None,
) -> MonteCarloStudy:
    """Run the Figure 9 experiment.

    ``measure`` maps a ratio vector to its measured (simulated) elapsed time;
    ``chosen_ratios`` is the cost model's own pick, measured the same way.
    All random ratio vectors are estimated in one vectorized batch, so the
    model-side cost of the study is a single ``estimate_series_batch`` call.
    The batch goes through ``cache`` when given — or, by default, through the
    process-wide :func:`shared_estimate_cache`, so repeated studies over the
    same calibrated steps reuse their rows.
    """
    vectors = sample_ratio_vectors(len(steps), n_samples, seed=seed, delta=delta)
    if cache is None:
        cache = shared_estimate_cache()
    estimated_totals = cache.totals(steps, vectors)
    measured_times = [measure(ratios) for ratios in vectors]
    samples = [
        MonteCarloSample(
            ratios=list(ratios), estimated_s=float(estimated), measured_s=measured
        )
        for ratios, estimated, measured in zip(
            vectors, estimated_totals.tolist(), measured_times
        )
    ]
    chosen = list(chosen_ratios)
    return MonteCarloStudy(
        samples=samples,
        chosen_ratios=chosen,
        chosen_measured_s=measure(chosen),
        chosen_estimated_s=estimate_series(steps, chosen).total_s,
    )
