"""
Checking the analytic rate against simulated trajectories.

Samples the full model recursions, runs the exact time-varying one-step
predictor on each path, and compares empirical covariances against what
the difference equations say they should be. Every comparison is judged
in standard errors, so "agrees" means "within sampling noise", not
"within some hand-picked tolerance".
"""
import numpy as np

from riccati_capacity import (
    NoiseModel, Channel, iid_input,
    asymptotic_rate, build_augmented, sample_paths, empirical_report,
)

PATHS = 30_000
HORIZON = 40
MASTER_SEED = 7


def main():
    noise = NoiseModel(A=0.5, B=1.0, C=1.0, N=1.0, K_W=1.0)
    input_model = iid_input(K_Z=[[1.0]])
    channel = Channel(H=[[1.0]], kappa=1.0)

    analytic = asymptotic_rate(noise, input_model, channel)
    print("analytic: rate = %.8f nats  K_I = %.4f  power = %.4f"
          % (analytic.rate_nats, analytic.K_I[0, 0], analytic.power))
    print()

    # Paths are sampled from the joint system build_augmented validates and
    # builds. Path i draws from a generator keyed on (MASTER_SEED, i): the
    # batch is reproducible and paths are independent by construction.
    system = build_augmented(noise, input_model, channel)
    batch = sample_paths(system, HORIZON, PATHS, MASTER_SEED)
    print("sampled %d paths of %d steps, saturated_at = %s"
          % (batch.paths, batch.horizon, batch.saturated_at))

    report = empirical_report(batch, analytic)
    print()
    print("%-38s %12s %12s %8s" % ("check", "analytic", "empirical", "dev/SE"))
    for row in report.rows:
        print("%-38s %12.6f %12.6f %8.2f  %s"
              % (row.name, np.max(row.analytic), np.max(row.empirical),
                 row.se_ratio, "ok" if row.ok else "FLAGGED"))
    print()
    print("report.ok =", report.ok)

    # A deliberately wrong claim should be caught. Feed the report the
    # zero-input analytic result for the same noise; its steady-state
    # K_I is 1.0 instead of 2.5 and the comparison flags it.
    zero_input = iid_input(K_Z=[[0.0]])
    wrong = asymptotic_rate(noise, zero_input, channel)
    bad = empirical_report(batch, wrong)
    flagged = [row.name for row in bad.rows if not row.ok]
    print()
    print("with a wrong analytic K_I = %.1f the flagged rows are:" % wrong.K_I[0, 0])
    for name in flagged:
        print(" ", name)
    assert not bad.ok

    # Same seed, same batch, bit for bit.
    again = sample_paths(system, HORIZON, PATHS, MASTER_SEED)
    assert np.array_equal(batch.Y, again.Y)
    print()
    print("resampling with the same master seed reproduces Y exactly: True")


if __name__ == "__main__":
    main()
