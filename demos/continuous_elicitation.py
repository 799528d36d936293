"""First-stage utility densities for a continuous cell.

Seven ranked alternatives with cumulative preference information: the
cumulative utility through rank 1 equals 0.32, through rank 3 is 15% above
the value through rank 2, and the slice between ranks 4 and 5 carries 0.065.
The solved density rescales the risk-preference target by one constant per
segment, so the target's risk attitude survives between breakpoints while
the constraints fix the segment masses.
"""

import numpy as np

from gopa import (
    CellContext,
    UtilityStructure,
    cumulative_utilities,
    elicit_continuous,
    risk_preference,
    target_density,
)

SIZE = 7
context = CellContext(ratio=((3, 1.15),), absdiff=((5, 0.065),),
                      lowerbound=((1, 0.32),))

targets = {
    "neutral": UtilityStructure(kind="neutral"),
    "hara(2,1,1.5)": UtilityStructure(kind="hara", alpha=2.0, beta=1.0, gamma=1.5),
    "crra(1,0.5)": UtilityStructure(kind="crra", alpha=1.0, gamma=0.5),
    "sshape(1)": UtilityStructure(kind="sshape", steepness=1.0),
}

print("constraints: F(1) = 0.32; F(3) = 1.15 F(2); F(5) - F(4) = 0.065\n")
for name, st in targets.items():
    density = elicit_continuous(target_density(st, SIZE), context, SIZE)
    print(f"{name}")
    print("  breakpoints   :", density.breakpoints.tolist())
    print("  segment scales:", np.round(density.scales, 4).tolist())
    print("  segment masses:", np.round(density.masses, 4).tolist())
    carried = cumulative_utilities(density)
    print("  per-rank utilities (best first):", np.round(carried, 4).tolist())
    x = 2.5
    print(f"  risk coefficient at x = {x}: {risk_preference(density, x):.4f}"
          f"   (target: {density.target.risk_coefficient(x):.4f})")
    print()

flat = elicit_continuous(target_density("neutral", SIZE), CellContext(), SIZE)
print("sanity: a flat density with no constraints gives the")
print("rank-sum surrogate weights:", np.round(cumulative_utilities(flat), 4).tolist())
