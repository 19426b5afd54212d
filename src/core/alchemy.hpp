/**
 * @file
 * The Alchemy embedded DSL, as a C++ API (paper §3.1, Table 1).
 *
 * The paper embeds Alchemy in Python; this library embeds the same
 * constructs in C++:
 *
 *   Paper construct            | This API
 *   ---------------------------+------------------------------------------
 *   Model(metric, algo, ...)   | ModelSpec{ name, metric, algorithms, ... }
 *   @DataLoader                | DataLoaderFn (any callable -> DataSplit)
 *   Platforms.Taurus() etc.    | Platforms::taurus() / tofino() / fpga()
 *   platform.constrain(...)    | PlatformHandle::constrain(perf, resources)
 *   mdl1 > mdl2, mdl1 | mdl2   | operator>/operator| building ScheduleNode
 *   IOMap(@IOMapper)           | IoMap{ mapper function }
 *   platform.schedule(...)     | PlatformHandle::schedule(node)
 *   homunculus.generate(...)   | core::Compiler(options).compile(platform)
 */
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backends/fpga.hpp"
#include "backends/mat_platform.hpp"
#include "backends/platform.hpp"
#include "backends/registry.hpp"
#include "backends/taurus.hpp"
#include "core/status.hpp"
#include "data/loaders.hpp"

namespace homunculus::core {

/** Objective metrics the Model construct accepts. */
enum class Metric { kF1, kAccuracy, kVMeasure };

std::string metricName(Metric metric);

/** Algorithm families the search may draw from. */
enum class Algorithm { kDnn, kSvm, kKMeans, kDecisionTree };

std::string algorithmName(Algorithm algorithm);
ir::ModelKind algorithmKind(Algorithm algorithm);

/** All algorithm families Homunculus knows about. */
const std::vector<Algorithm> &allAlgorithms();

/**
 * Connects a model's inputs/outputs to other components (paper's IOMap /
 * @IOMapper). The mapper rewrites the downstream feature vector given the
 * upstream feature vector and the upstream model's decision.
 */
struct IoMap
{
    using MapperFn = std::function<std::vector<double>(
        const std::vector<double> &upstream_features, int upstream_label)>;

    MapperFn mapper;

    /** Identity wiring: downstream sees the same features. */
    static IoMap identity();

    /** Append the upstream decision as an extra downstream feature. */
    static IoMap appendLabel();
};

/** The Model construct: objectives, algorithm pool, and the data loader. */
struct ModelSpec
{
    std::string name = "model";
    Metric optimizationMetric = Metric::kF1;
    /** Empty = let Homunculus pick from every supported family. */
    std::vector<Algorithm> algorithms;
    data::DataLoaderFn dataLoader;
    /** Optional override of search bounds (max hidden layers etc.). */
    std::size_t maxHiddenLayers = 8;
    std::size_t maxNeuronsPerLayer = 32;
    std::optional<std::size_t> maxClusters;  ///< KMeans k upper bound.
};

/** Composition DAG of scheduled models (paper's > and | operators). */
struct ScheduleNode
{
    enum class Kind { kModel, kSequential, kParallel };

    Kind kind = Kind::kModel;
    std::shared_ptr<ModelSpec> spec;       ///< kModel payload.
    std::vector<ScheduleNode> children;    ///< composite payload.
    IoMap ioMap = IoMap::identity();       ///< wiring for sequential edges.

    /** Number of leaf models in the subtree. */
    std::size_t modelCount() const;

    /** Collect the leaf specs in schedule order. */
    std::vector<const ModelSpec *> leafSpecs() const;

    /** Render the composition as the paper's notation, e.g. "(a > b) | c". */
    std::string notation() const;
};

/** Wrap a spec as a leaf schedule node. */
ScheduleNode leaf(const ModelSpec &spec);

/** Sequential composition (paper operator >). */
ScheduleNode operator>(const ModelSpec &lhs, const ModelSpec &rhs);
ScheduleNode operator>(ScheduleNode lhs, const ModelSpec &rhs);
ScheduleNode operator>(ScheduleNode lhs, ScheduleNode rhs);

/** Parallel composition (paper operator |). */
ScheduleNode operator|(const ModelSpec &lhs, const ModelSpec &rhs);
ScheduleNode operator|(ScheduleNode lhs, const ModelSpec &rhs);
ScheduleNode operator|(ScheduleNode lhs, ScheduleNode rhs);

/**
 * Resource limits the operator can cap a platform to. Lives with the
 * backend interface (each Platform applies its own fields via
 * Platform::withBudget); aliased here for the Alchemy surface.
 */
using ResourceBudget = backends::ResourceBudget;

/** A declared target device plus its constraints and schedule. */
class PlatformHandle
{
  public:
    explicit PlatformHandle(backends::PlatformPtr platform);

    /** Apply performance and resource constraints (paper operator <). */
    void constrain(const backends::PerfConstraints &perf,
                   const ResourceBudget &resources = {});

    /** Schedule a single model or a composition DAG. */
    void schedule(const ModelSpec &spec);
    void schedule(ScheduleNode node);

    backends::Platform &platform() { return *platform_; }
    const backends::Platform &platform() const { return *platform_; }
    backends::PlatformPtr platformPtr() const { return platform_; }

    const std::vector<ScheduleNode> &schedules() const { return schedules_; }
    const ResourceBudget &budget() const { return budget_; }

  private:
    backends::PlatformPtr platform_;
    std::vector<ScheduleNode> schedules_;
    ResourceBudget budget_;
};

/**
 * Factory namespace mirroring the paper's `Platforms` class. Every
 * factory — typed or by name — resolves through the BackendRegistry, so
 * registering a new backend makes it available everywhere at once.
 */
namespace Platforms {

/** A Taurus switch with the given MapReduce grid. */
PlatformHandle taurus(backends::TaurusConfig config = {});

/** A Tofino-style MAT pipeline. */
PlatformHandle tofino(backends::MatConfig config = {});

/** An FPGA SmartNIC / accelerator card. */
PlatformHandle fpga(backends::FpgaConfig config = {});

/**
 * Resolve any registered backend by name ("taurus", "tofino", "fpga",
 * or a plugin's). NOT_FOUND Statuses list the known names.
 */
Result<PlatformHandle> byName(const std::string &name,
                              const backends::BackendParams &params = {});

}  // namespace Platforms

}  // namespace homunculus::core
