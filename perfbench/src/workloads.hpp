/**
 * @file
 * The three workloads. Each builds its inputs from Args::seed before
 * any timing starts, measures for about Args::seconds, checks outputs
 * against a reference, and fills the Report: end-to-end metrics when
 * Args::trace is false, per-layer metrics when it is true.
 */
#pragma once

#include <vector>

#include "report.hpp"

namespace perfbench {

/** Open loop at a fixed rate: wire frames -> single-model Server. */
void runFramesOpen(const Args &args, Report &report);

/** Closed loop: raw rows -> routed 2-shard ShardedServer with a
 *  front -> deep chain and scheduled front-model swaps. */
void runRoutedClosed(const Args &args, Report &report);

/** Staged CompileSession runs of the paper's AD application. */
void runCompileAd(const Args &args, Report &report);

/** Median of the set-up repetitions, reported as setup_s. */
void reportSetup(Report &report, std::vector<double> setup_s);

}  // namespace perfbench
