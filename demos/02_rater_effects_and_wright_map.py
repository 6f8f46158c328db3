"""Estimate rater severity/leniency and draw the Wright map.

Fits the many-facet rating-scale model by joint maximum likelihood:
every person gets an ability, every rater a severity, every item a
difficulty, all on one logit scale, plus shared category thresholds.
Positive severity means the rater pulls scores down.
"""

from importlib.resources import files

from facetkit import (
    STRINGENT_CUTS,
    estimate,
    fit_statistics,
    ingest_csv,
    measure_table,
    render_wright,
    severity_classification,
    with_flags,
)

DATA = str(files("facetkit") / "data" / "paper_shaped.csv")

tensor = ingest_csv(DATA, scale_min=0, scale_max=6)
estimates = estimate(tensor)
print(f"converged={estimates.converged} after {estimates.iterations_used} iterations, "
      f"log-likelihood {estimates.log_likelihood_final:.1f}")

labels = severity_classification(estimates, cut=0.3)
print("\nrater measures (most lenient first):")
fit = with_flags(fit_statistics(tensor, estimates, "rater"), STRINGENT_CUTS)
table = measure_table(estimates, fit)
print(table.to_csv_text())

print("severity labels at the 0.3-logit cut:")
for rater in estimates.ids.raters:
    print(f"  {rater:<4} {estimates.severity_of(rater):+.2f}  {labels[rater]}")

print("\nWright map (persons | raters | items | thresholds):\n")
print(render_wright(estimates, "ascii"))

with open("/tmp/wright.svg", "w", encoding="utf-8") as f:
    f.write(render_wright(estimates, "svg"))
print("SVG version written to /tmp/wright.svg")
