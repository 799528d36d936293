"""A full group decision: five experts, six attributes, ten alternatives.

Experts are prioritized E5 > E2 > E1 > E3 > E4.  Every cell gets its own
utility structure (mixing the discrete families with risk-averse, neutral,
and S-shaped densities) and its own partial preference constraints, yet the
expert and attribute weights match the rankings-only solve: risk preferences
shape alternative weights only.  Consensus diagnostics and the full
expert-rank permutation sweep close the loop.
"""

import numpy as np

from gopa import consensus_report, permutation_stats, solve_gopa, solve_opa
from gopa.pipeline import elicit_utilities

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from model_helpers import case_study_problem  # noqa: E402

problem, context, structures = case_study_problem(seed=0)
utilities = elicit_utilities(problem, context, structures)
solution = solve_gopa(problem, utilities)

print("expert weights (E1..E5):", np.round(solution.expert_weights, 4))
print("  rankings-only solve  :", np.round(solve_opa(problem).expert_weights, 4))
print("attribute weights      :", np.round(solution.attribute_weights, 4))

order = np.argsort(-solution.alternative_weights)
print("\nalternatives, best to worst:")
for k in order:
    print(f"  {problem.alternative_ids[k]:4s} {solution.alternative_weights[k]:.4f}")

report = consensus_report(solution)
print("\nconsensus:")
print("  attribute concordance :", round(report.kendall_attributes, 4),
      "->", report.label_attributes)
print("  per-attribute levels  :", np.round(report.lcl_alternatives, 4).tolist())
print("  global confidence     :", round(report.gcl, 4), "->", report.label_global)

stats = permutation_stats(problem, utilities)
print("\n120 expert-rank permutations, per-expert weight statistics:")
print("         mean    skew    kurt      cv     min     max")
for eid, st in stats["experts"]:
    print(f"  {eid}  {st.mean:6.4f} {st.skewness:7.4f} {st.kurtosis:7.4f} "
          f"{st.cv:7.4f} {st.minimum:7.4f} {st.maximum:7.4f}")
