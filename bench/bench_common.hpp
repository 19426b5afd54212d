/**
 * @file
 * Shared experiment setup for the paper-reproduction benches.
 *
 * Defines the three applications of the paper's evaluation (§5) — anomaly
 * detection (AD), traffic classification (TC), botnet detection (BD) —
 * with their hand-tuned baseline architectures and data loaders, plus the
 * helpers every bench uses to train baselines and run Homunculus searches
 * under the paper's constraints (1 GPkt/s, 500 ns, 16x16 Taurus grid).
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "data/anomaly_generator.hpp"
#include "data/flowmarker.hpp"
#include "data/iot_traffic_generator.hpp"
#include "data/p2p_traces.hpp"

namespace homunculus::bench {

/** Global experiment seed; every bench derives from it. */
constexpr std::uint64_t kBenchSeed = 2206'05592;  // arXiv id of the paper.

/** The three §5 applications. */
enum class App { kAd, kTc, kBd };

std::string appName(App app);

/** Data loaders (deterministic, paper-like difficulty). */
ml::DataSplit loadAd();
ml::DataSplit loadTc();

/**
 * TC data for the Figure 7 clustering experiment: lower overlap so the
 * 5 device archetypes form real clusters (unsupervised KMeans can only
 * reward extra tables when the cluster structure exists).
 */
ml::DataSplit loadTcClustering();

/**
 * BD data: train on flow-level flowmarkers, test on per-packet partial
 * histograms (paper §5.1.2's reaction-time evaluation).
 */
ml::DataSplit loadBd();

/** ModelSpec for an app (DNN family, F1 objective). */
core::ModelSpec appSpec(App app);

/** The hand-tuned baseline architectures (paper Table 2). */
ml::MlpConfig baselineConfig(App app, const ml::DataSplit &split);

/** Train the baseline and evaluate it on @p platform (quantized). */
core::CandidateEvaluation trainBaseline(App app, const ml::DataSplit &split,
                                        const backends::Platform &platform);

/** The paper's Taurus target: 16x16 grid, 1 GPkt/s, 500 ns. */
core::PlatformHandle paperTaurus();

/**
 * Search options used by the paper experiments (paper-scale-ish budget),
 * as the session API's CompileOptions for core::Compiler.
 */
core::CompileOptions searchBudget(std::size_t init = 5,
                                  std::size_t iterations = 15);

/** Print a "paper reported vs. measured" footnote line. */
void printPaperNote(const std::string &note);

/**
 * Random quantized IRs at paper-plausible sizes (hundreds to a few
 * thousand parameters — they must fit a switch pipeline) for the
 * throughput benches; inference cost does not depend on the weight
 * values, so training is skipped. One per family:
 * MLP 16 -> 32 -> 32 -> 2 (the AD-like baseline shape), 8-centroid
 * KMeans, 4-class SVM, depth-8 complete tree — all on 16 features.
 */
ir::ModelIr benchMlpIr();
ir::ModelIr benchKMeansIr();
ir::ModelIr benchSvmIr();
ir::ModelIr benchTreeIr();

/** Random feature matrix for the bench models (16 columns). */
math::Matrix benchFeatures(std::size_t rows, std::size_t cols);

/**
 * Machine-readable bench output. Benches accept `--json PATH`
 * (extractJsonPath strips it from argv before the bench library parses
 * the rest), collect one flat record per measurement, and write a single
 * JSON document: {"benchmarks": [{"name": ..., <metric>: <number>,
 * ...}]}. CI runs the throughput benches with --json and uploads the
 * files, so the repo's perf trajectory is tracked per commit.
 */
class BenchJson
{
  public:
    /** Add one record: a name plus (metric, value) pairs. */
    void add(const std::string &name,
             const std::vector<std::pair<std::string, double>> &metrics);

    bool empty() const { return records_.empty(); }

    /** Serialize all records; returns false (and prints to stderr) when
     *  the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    struct Record
    {
        std::string name;
        std::vector<std::pair<std::string, double>> metrics;
    };
    std::vector<Record> records_;
};

/** Find and remove "--json PATH" from argv; returns PATH or "". */
std::string extractJsonPath(int &argc, char **argv);

}  // namespace homunculus::bench
