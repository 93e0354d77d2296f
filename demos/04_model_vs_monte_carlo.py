"""First-success distribution: closed form vs Monte Carlo.

For each operating point, the closed-form pmf over the first successful
attempt is compared against the first-success counts of 100k independent
trials under the model's assumptions, drawn as one binomial per attempt. The
last line counts the bins that fail the exact binomial tail test at a 1e-3
level shared by all 18 bins; the `v2isim validate` subcommand runs this same
check and turns it into an exit status.
"""

import numpy as np

from v2isim import ScenarioConfig
from v2isim.analytic import first_success_pmf, params_from_config
from v2isim.validation import FALSE_ALARM_LEVEL, N_CHECK, bin_consistent, check_against_pmf

TRIALS = 100_000
POINTS = ((300.0, 30.0), (0.0, 10.0), (-100.0, 20.0))
ALPHA = FALSE_ALARM_LEVEL / (N_CHECK * len(POINTS))   # per bin

cfg = ScenarioConfig()
failed = bins = 0
for seed, (d_t, flow) in enumerate(POINTS):
    params = params_from_config(cfg, d_t=d_t, density=flow)
    pmf = first_success_pmf(params)
    print(f"\nd_t = {d_t:+.0f} m, {flow:.0f} veh/s "
          f"(success mass {sum(pmf):.6f}, {len(pmf)} attempt bins)")
    print(f"{'n':>3} {'analytic':>10} {'observed':>10} {'expected':>10} "
          f"{'z':>7}")
    rng = np.random.default_rng(seed)
    for check in check_against_pmf(params, TRIALS, rng):
        z = 0.0 if check.sigma == 0 else (check.observed - check.expected) / check.sigma
        ok = bin_consistent(check.observed, TRIALS, check.expected / TRIALS, ALPHA)
        flag = "" if ok else "  <-- TAIL TEST FAILS"
        failed += not ok
        bins += 1
        print(f"{check.n:>3} {pmf[check.n] if check.n < len(pmf) else 0.0:>10.5f} "
              f"{check.observed / TRIALS:>10.5f} {check.expected / TRIALS:>10.5f} "
              f"{z:>+7.2f}{flag}")

print(f"\n{failed} of {bins} bins fail the binomial tail test at {ALPHA:.3g} per bin.")
