"""Binary search for the gate threshold that meets a FLOPS budget.

The keep rule (gate > threshold) makes pruned FLOPS non-increasing in
the threshold, so bisection applies: when the candidate structure falls
below budget the threshold must come down (search the lower half), when
it sits above budget the threshold must go up. The search stops as soon
as the relative gap is within tolerance; if the iteration cap is hit
first, the best threshold seen is returned with ``converged=False``
(discrete channel counts can make the exact tolerance unattainable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arch import (ArchSpec, ChannelConfig, count_flops, full_config,
                   prune_by_threshold)
from .errors import BudgetError, ConfigError


@dataclass(frozen=True)
class SearchConfig:
    budget: int
    max_iters: int = 20
    rel_tolerance: float = 0.02

    def __post_init__(self):
        if not (math.isfinite(self.rel_tolerance) and self.rel_tolerance > 0):
            raise ConfigError(f"tolerance must be finite and positive, "
                              f"got {self.rel_tolerance}")
        if self.max_iters < 1:
            raise ConfigError("need at least one iteration")


@dataclass(frozen=True)
class SearchStep:
    """One bisection probe: the interval going in and the result."""
    iteration: int
    lo: float
    hi: float
    tau: float
    flops: int
    rel_gap: float


@dataclass(frozen=True)
class SearchResult:
    tau_star: float
    config: ChannelConfig
    achieved_flops: int
    iterations: int
    converged: bool
    history: tuple[SearchStep, ...]


def search_structure(gates, arch: ArchSpec,
                     cfg: SearchConfig) -> SearchResult:
    """Find a threshold whose pruned structure meets ``cfg.budget`` MACs.

    ``gates`` is a GateState or a sequence of per-layer gate vectors, one
    per id of ``arch.gated_ids``. A budget equal to the full FLOPS
    returns the full structure at threshold 0 after no iterations: a gate
    of exactly 0 survives no threshold, so bisection never gets there.
    Deterministic in its inputs.
    """
    full = count_flops(arch)
    if cfg.budget > full:
        raise BudgetError(
            f"budget {cfg.budget} exceeds full structure FLOPS {full}")
    if cfg.budget <= 0:
        raise BudgetError(f"budget must be positive, got {cfg.budget}")
    if cfg.budget == full:
        return SearchResult(0.0, full_config(arch), full, 0, True, ())

    lo, hi = 0.0, 1.0  # gates live in [0, 1]
    history: list[SearchStep] = []
    best: tuple[float, float, ChannelConfig, int] | None = None
    for t in range(1, cfg.max_iters + 1):
        tau = 0.5 * (lo + hi)
        config = prune_by_threshold(gates, tau)
        flops = count_flops(arch, config)
        gap = abs(flops - cfg.budget) / cfg.budget
        history.append(SearchStep(t, lo, hi, tau, flops, gap))
        if best is None or gap < best[0]:
            best = (gap, tau, config, flops)
        if gap <= cfg.rel_tolerance:
            return SearchResult(tau, config, flops, t, True, tuple(history))
        if flops < cfg.budget:
            hi = tau
        else:
            lo = tau
    gap, tau, config, flops = best
    return SearchResult(tau, config, flops, cfg.max_iters, False,
                        tuple(history))


def result_to_dict(result: SearchResult) -> dict:
    """JSON-ready view of a SearchResult for run records."""
    return {
        "tau_star": result.tau_star,
        "achieved_flops": result.achieved_flops,
        "iterations": result.iterations,
        "converged": result.converged,
        "kept_counts": list(result.config.kept_counts),
        "kept_indices": [list(ix) for ix in result.config.kept_indices],
        "history": [
            {"iteration": s.iteration, "lo": s.lo, "hi": s.hi, "tau": s.tau,
             "flops": s.flops, "rel_gap": s.rel_gap}
            for s in result.history
        ],
    }

