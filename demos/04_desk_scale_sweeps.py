#!/usr/bin/env python3
"""Desk-scale verification campaigns (reduced sizes so the demo is quick).

The full campaigns behind the acceptance suite:
  lemma22        every connected labeled graph with 2 <= n <= 7 against the
                 edge-count upper bound (1.9M graphs)
  lemma23        all 4.79M complement-budget graphs on 8 vertices against
                 the density condition, unranked in blocks of 65,536 into
                 numpy bit rows and tested together (about 3 s); only the
                 graphs found not 3-connected, and every 100,000th graph,
                 take the per-graph path
  counterexample 10^4 seeded random graphs at n = 103 through the verdict
                 pipeline, hunting for a theorem violation (none exist)
Here we run shrunken versions of each and print the report summaries.
"""

from qconn import CampaignConfig, run_campaign

for config in [
    CampaignConfig(mode="lemma22", n_min=2, n_max=6),
    CampaignConfig(mode="lemma23", n=8, k=3, delta=3, complement_budget=4),
    CampaignConfig(mode="counterexample", n=103, k=3, delta=3, count=200, seed=1),
    CampaignConfig(mode="theorem15", n=103, k=3, delta=3),
    CampaignConfig(mode="family-sweep", n=103, k=3, delta=3),
]:
    report = run_campaign(config)
    print(f"{config.mode:15s} tested={report.tested:>8} passed={report.passed:>8} "
          f"failed={report.failed} skipped={report.skipped} undecided={report.undecided} "
          f"violations={len(report.violations)}  [{report.wall_clock_s:.1f}s]")
    if config.mode == "counterexample":
        print(f"{'':15s} outcome histogram: {report.details['outcomes']}")

print("\nreports are deterministic: rerunning any campaign with the same config")
print("reproduces the JSON byte for byte (timing aside).")
