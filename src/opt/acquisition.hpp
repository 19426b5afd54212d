/**
 * @file
 * Acquisition functions for Bayesian optimization.
 *
 * The paper selects Expected Improvement (Mockus et al. [64]) over a
 * random-forest surrogate; feasibility-weighted EI multiplies by the
 * constraint model's predicted feasibility probability (Gardner et al.
 * [30] / Gelbart et al. [31] style), which is how Homunculus folds
 * resource and network constraints into the search.
 */
#pragma once

namespace homunculus::opt {

/**
 * Expected improvement of a Gaussian posterior over the incumbent.
 *
 * @param mean surrogate posterior mean at the candidate
 * @param variance surrogate posterior variance at the candidate
 * @param best incumbent objective value
 * @param maximize true when larger objectives are better
 * @param xi exploration jitter (>= 0)
 * @return expected improvement (>= 0)
 */
double expectedImprovement(double mean, double variance, double best,
                           bool maximize, double xi = 0.01);

}  // namespace homunculus::opt
