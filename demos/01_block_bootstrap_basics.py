"""Resampling a dependent series: from blocks to a bootstrap distribution.

This walk-through simulates a short ARMA(1,1) series, pastes random blocks
into a pseudo-series, and builds the Monte Carlo distribution of the scaled
quantile deviation.  The exact conditional law, which convolves the
distribution of the count in one block b times instead of drawing blocks,
shows the Monte Carlo CDF converging to it on a tiny instance, and gives a
confidence bound free of bootstrap Monte Carlo error (``n_boot=None``).
"""

import numpy as np

from blockboot import (
    BlockPlan,
    arma11_model,
    bootstrap_quantile_distribution,
    draw_block_starts,
    exact_quantile_distribution,
    paste_blocks,
    sample_quantile,
    simulate,
    substream,
)
from blockboot.estimators import lower_confidence_bounds

series = simulate(arma11_model(), n=200, seed=7)
print(f"simulated {series.size} observations; sample median = {sample_quantile(series, 0.5):+.4f}")

# One resample by hand: draw 6 block starts of length 8 and paste them.
plan = BlockPlan(n_blocks=6, block_length=8)
starts = draw_block_starts(substream(123), series.size, plan)
pseudo = paste_blocks(series, starts, plan.block_length)
print(f"block starts {starts.tolist()} -> pseudo-series of length {pseudo.size}")
print(f"pseudo-series median = {sample_quantile(pseudo, 0.5):+.4f}")

# The Monte Carlo distribution of sqrt(b*ell) * (resampled median - centering median).
dist = bootstrap_quantile_distribution(series, plan, p=0.5, n_boot=5000, rng=substream(123))
print(f"\nbootstrap distribution: {dist.values.size} atoms from {dist.total} replicates")
for alpha in (0.05, 0.5, 0.95):
    print(f"  quantile({alpha:.2f}) = {dist.quantile(alpha):+.4f}")

# The same machinery spans subsampling (1 block) through the moving block
# bootstrap (floor(n/ell) blocks); only the plan changes.
for label, p2 in [("subsampling", BlockPlan(1, 8)), ("hybrid", plan), ("mbb", BlockPlan.mbb(series.size, 8))]:
    d = bootstrap_quantile_distribution(series, p2, 0.5, 5000, substream(123))
    print(f"  {label:11s} (b={p2.n_blocks:3d}, ell={p2.block_length}): sd of atoms = {np.sqrt(np.cov(d.values, fweights=d.counts)):.4f}")

# The exact conditional law, as integer multiplicities over the equally
# likely start tuples (offered for up to 10**6 of them).
tiny = simulate(arma11_model(), n=9, seed=11)
tiny_plan = BlockPlan(2, 3)
exact = exact_quantile_distribution(tiny, tiny_plan, p=0.5)
mc = bootstrap_quantile_distribution(tiny, tiny_plan, p=0.5, n_boot=100_000, rng=substream(5))
print(f"\ntiny instance: {exact.total} equally likely start tuples, {exact.values.size} distinct atoms")
worst = max(abs(mc.cdf(v) - q) for v, q in zip(exact.values, np.cumsum(exact.counts) / exact.total))
print(f"largest |MC - exact| CDF gap over the atoms: {worst:.4f}")

# A one-sided lower confidence bound for the population median (here 0),
# at 5000 Monte Carlo replicates (one level drawn from a generator) and from
# the exact law: one bound per plan given.
(lower,) = lower_confidence_bounds(series, [plan], p=0.5, alpha=0.90, n_boot=5000, rng=substream(123))
(lower_exact,) = lower_confidence_bounds(series, [plan], p=0.5, alpha=0.90)
print(f"\n90% lower confidence bound for the median: {lower:+.4f} (true value 0)")
print(f"the same bound from the exact bootstrap law:  {lower_exact:+.4f}")
