/**
 * @file
 * ModelRegistry: named, versioned, hot-swappable compiled models.
 *
 * runtime::Server owned exactly one ExecutablePlan per process — fine
 * for a demo, useless for the paper's flagship deployment story of
 * co-resident and chained per-app models sharing one data plane. The
 * registry is the model store behind that fleet: it loads
 * `homunculus-ir` v3 artifacts (or in-memory ModelIrs) under a caller
 * chosen name, compiles each into an InferenceEngine once, and hands
 * them out as immutable, reference-counted **epochs**:
 *
 *  - versioned: repeated loads under one name get monotonically
 *    increasing versions (v1, v2, ...). Every version of a name must be
 *    a drop-in replacement — same input width, same label space — so a
 *    swap can never hand the router a plan the admitted requests don't
 *    fit.
 *  - atomic hot swap: swap(name, version) flips which version active()
 *    returns, in one mutex-protected step. Consumers that pinned the
 *    old epoch (a batch mid-execution) keep executing exactly the plan
 *    they started with; consumers that pin after the swap get the new
 *    one. There is no in-between state: a batch observes one plan
 *    version, never a mix.
 *  - unload-when-idle retirement: an old version stays loaded (cheap —
 *    a compiled plan, not a training set) until unloadIdle() finds it
 *    both inactive and unpinned, or unload() force-removes it from the
 *    table — in which case in-flight pins still keep the epoch alive
 *    until the last one drops (shared_ptr semantics); only the *table
 *    entry* goes away immediately.
 *
 * Scaler provenance rides the artifact: a v3 model with stored moments
 * gets its training-time StandardScaler attached to the epoch; a model
 * recorded as raw-trained (or a legacy artifact) gets none. The
 * registry never refits statistics on traffic — it is artifact-driven
 * by design (the 3am control plane installs what the compiler shipped).
 *
 * Thread model: every method is safe to call from any thread. active()
 * and version() return shared_ptrs whose pointees are immutable after
 * load, so lookups race with swaps only on the pointer flip, which the
 * registry mutex serializes.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ml/preprocess.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/telemetry.hpp"

namespace homunculus::runtime {

/**
 * One immutable loaded model version: the compiled engine plus the
 * artifact's scaler provenance. Pinning an epoch (holding the
 * shared_ptr) guarantees the plan it wraps outlives the pin, swaps and
 * unloads notwithstanding.
 */
struct ModelEpoch
{
    std::string name;
    std::uint64_t version = 0;
    InferenceEngine engine;
    /** Training-time scaler from the artifact (nullopt = serve raw). */
    std::optional<ml::StandardScaler> scaler;

    ModelEpoch(std::string name_, std::uint64_t version_,
               InferenceEngine engine_,
               std::optional<ml::StandardScaler> scaler_)
        : name(std::move(name_)), version(version_),
          engine(std::move(engine_)), scaler(std::move(scaler_))
    {
    }

    std::size_t inputDim() const { return engine.plan().inputDim(); }
    int numClasses() const { return engine.plan().numClasses(); }
};

class ModelRegistry
{
  public:
    /** @param engine_options execution policy every loaded model's
     *  engine is built with (jobs, inline threshold, pool).
     *  @param metrics registry the control-plane event counters land
     *  in ("registry.loads" {model=name}, .swaps, .pins, .unloads).
     *  nullptr (the default) uses the process-global registry — model
     *  lifecycles are control-plane events with no per-shard owner. */
    explicit ModelRegistry(EngineOptions engine_options = {},
                           telemetry::MetricRegistry *metrics = nullptr);

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Compile @p model and install it under @p name. The first load of
     * a name becomes version 1 and active; later loads get the next
     * version and (by default) stay inactive until swap() promotes
     * them, so loading is never itself a traffic shift.
     * @returns the assigned version.
     * @throws std::runtime_error when the model is invalid or is not a
     *         drop-in for the name (input width / class count differ
     *         from version 1).
     *
     * @param engine_options per-load execution policy override: a
     *        probe-lane model can reserve its own executor / shard
     *        thresholds (or pin scalar kernels) while the rest of the
     *        fleet keeps the registry-wide defaults. nullopt = the
     *        registry's shared options. The override is per *version*:
     *        reloading a name can change its policy along with its
     *        weights.
     */
    std::uint64_t load(const std::string &name, const ir::ModelIr &model,
                       bool activate_if_first = true,
                       const std::optional<EngineOptions>
                           &engine_options = std::nullopt);

    /** load() from a serialized `homunculus-ir` artifact file. */
    std::uint64_t loadFile(const std::string &name,
                           const std::string &path,
                           bool activate_if_first = true,
                           const std::optional<EngineOptions>
                               &engine_options = std::nullopt);

    /**
     * Atomically make @p version the one active() returns for @p name.
     * In-flight consumers keep the epoch they pinned; the flip affects
     * only future active() calls. Swapping to the already-active
     * version is a no-op.
     * @returns the previously active version.
     * @throws std::out_of_range for an unknown name or version.
     */
    std::uint64_t swap(const std::string &name, std::uint64_t version);

    /** The active epoch of @p name (pin it for the whole batch).
     *  @throws std::out_of_range for an unknown name. */
    std::shared_ptr<const ModelEpoch> active(const std::string &name) const;

    /** A specific loaded version (nullptr when not loaded — e.g.
     *  already unloaded; unknown names also yield nullptr). */
    std::shared_ptr<const ModelEpoch> version(const std::string &name,
                                              std::uint64_t version) const;

    /** @throws std::out_of_range for an unknown name. */
    std::uint64_t activeVersion(const std::string &name) const;

    bool contains(const std::string &name) const;
    std::vector<std::string> names() const;             ///< sorted.
    std::vector<std::uint64_t> versions(const std::string &name) const;

    /**
     * Retire every version of @p name that is neither active nor pinned
     * by anyone outside the registry (use_count == 1). Safe to call on
     * a schedule; a version pinned by an in-flight batch is skipped and
     * can be collected on a later sweep.
     * @returns how many versions were unloaded.
     */
    std::size_t unloadIdle(const std::string &name);

    /**
     * Force-remove one version from the table now. In-flight pins keep
     * the epoch alive until released — only future version() lookups
     * stop finding it. The active version cannot be unloaded (swap
     * first); @returns false when the version was not loaded.
     * @throws std::invalid_argument when @p version is active.
     */
    bool unload(const std::string &name, std::uint64_t version);

    const EngineOptions &engineOptions() const { return engineOptions_; }

  private:
    struct Entry
    {
        std::map<std::uint64_t, std::shared_ptr<const ModelEpoch>> loaded;
        std::uint64_t active = 0;
        std::uint64_t nextVersion = 1;
        std::size_t inputDim = 0;  ///< pinned by the first load.
        int numClasses = 0;
        /** "registry.pins" {model=name}, resolved at the first load:
         *  pins happen per model per batch, too often to resolve the
         *  name under the metric registry's mutex each time. */
        telemetry::Counter *pins = nullptr;
    };

    const Entry &entryFor(const std::string &name) const;

    /** Bump "registry.<event>" {model=name} in metrics_. */
    void count(const char *event, const std::string &name) const;

    EngineOptions engineOptions_;
    telemetry::MetricRegistry *metrics_ = nullptr;
    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

}  // namespace homunculus::runtime
