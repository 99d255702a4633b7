"""Choosing the number and length of blocks from the data.

Candidate plans are indexed by constants (c1, c2) through
b = floor(c1 * n**(1/3)) and ell = floor(c2 * n**(1/3)).  For each candidate
the bootstrap CDF estimate from the full series is compared against the same
estimate recomputed on 20 short subsamples; the average squared discrepancy
estimates how erratic that plan is, and the least erratic cell wins.
"""

from blockboot import TuneConfig, select_plan, simulate, squared_arma23_model

n = 512
series = simulate(squared_arma23_model(), n=n, seed=42)

cfg = TuneConfig(
    c1_grid=(0.5, 0.75, 1.0, 1.5, 2.0),
    c2_grid=(0.5, 0.75, 1.0, 1.5, 2.0),
    x=1.0,
    n_boot=2000,
    seed=99,
    subsample_len=64,
    subsample_count=20,
)

result = select_plan(series, cfg)
print(f"candidate error surface on one simulated series (n={n}):\n")
print("   c1\\c2 " + "".join(f"{c2:>9.2f}" for c2 in cfg.c2_grid))
for c1 in cfg.c1_grid:
    row = [cell for cell in result.table if cell.c1 == c1]
    print(f"  {c1:5.2f}  " + "".join(f"{cell.err:9.5f}" for cell in row))

print(f"\nselected (c1, c2) = ({result.c1}, {result.c2})")
print(f"induced plan: {result.plan.n_blocks} blocks of length {result.plan.block_length}")
print("\nNote: the selection is seeded and reproducible; rerunning this script")
print("gives the identical table, while a different series seed gives a")
print("different (data-driven) selection.")
