#include "runtime/model_registry.hpp"

#include <stdexcept>

#include "common/string_util.hpp"
#include "ir/serialize.hpp"
#include "runtime/fault_injector.hpp"

namespace homunculus::runtime {

ModelRegistry::ModelRegistry(EngineOptions engine_options,
                             telemetry::MetricRegistry *metrics)
    : engineOptions_(engine_options),
      metrics_(metrics != nullptr ? metrics
                                  : &telemetry::MetricRegistry::global())
{
}

void
ModelRegistry::count(const char *event, const std::string &name) const
{
    // Control-plane events only (loads, swaps, unloads) — the
    // resolve-under-mutex cost is fine off the per-batch path.
    metrics_->counter(event, {{"model", name}}).add();
}

std::uint64_t
ModelRegistry::load(const std::string &name, const ir::ModelIr &model,
                    bool activate_if_first)
{
    // Compile outside the lock: plan compilation is the expensive part
    // and must not stall concurrent active() lookups on the serving
    // path.
    InferenceEngine engine = InferenceEngine::fromModel(model,
                                                        engineOptions_);
    std::optional<ml::StandardScaler> scaler;
    if (model.hasScaler())
        scaler = ml::StandardScaler::fromMoments(model.scalerMeans,
                                                 model.scalerStds);
    return install(name, std::move(engine), std::move(scaler),
                   activate_if_first);
}

std::uint64_t
ModelRegistry::install(const std::string &name, InferenceEngine engine,
                       std::optional<ml::StandardScaler> scaler,
                       bool activate_if_first)
{
    if (name.empty())
        throw std::runtime_error("ModelRegistry: model name is empty");
    const std::size_t input_dim = engine.plan().inputDim();
    const int num_classes = engine.plan().numClasses();
    if (scaler && !scaler->fitted())
        throw std::runtime_error("ModelRegistry: scaler is not fitted");
    if (scaler && scaler->means().size() != input_dim)
        throw std::runtime_error("ModelRegistry: scaler width does not "
                                 "match the model");

    std::lock_guard<std::mutex> lock(mutex_);
    Entry &entry = entries_[name];
    if (entry.nextVersion == 1) {
        entry.inputDim = input_dim;
        entry.numClasses = num_classes;
        entry.pins = &metrics_->counter("registry.pins", {{"model", name}});
    } else if (input_dim != entry.inputDim ||
               num_classes != entry.numClasses) {
        throw std::runtime_error(common::format(
            "ModelRegistry: '%s' v%llu is not a drop-in replacement "
            "(%zu features / %d classes, expected %zu / %d)",
            name.c_str(),
            static_cast<unsigned long long>(entry.nextVersion),
            input_dim, num_classes, entry.inputDim, entry.numClasses));
    }
    std::uint64_t version = entry.nextVersion++;
    entry.loaded[version] = std::make_shared<const ModelEpoch>(
        name, version, std::move(engine), std::move(scaler));
    if (entry.active == 0 && activate_if_first)
        entry.active = version;
    count("registry.loads", name);
    return version;
}

std::uint64_t
ModelRegistry::loadFile(const std::string &name, const std::string &path,
                        bool activate_if_first)
{
    // The artifact-read fault site models a torn/unreadable file: it
    // throws before any parse work, like a disk error would.
    faults::FaultInjector::global().maybe(faults::kSiteArtifactRead);
    return load(name, ir::loadModel(path), activate_if_first);
}

const ModelRegistry::Entry &
ModelRegistry::entryFor(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("ModelRegistry: unknown model '" + name +
                                "'");
    return it->second;
}

std::uint64_t
ModelRegistry::swap(const std::string &name, std::uint64_t version)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("ModelRegistry: unknown model '" + name +
                                "'");
    Entry &entry = it->second;
    if (entry.loaded.find(version) == entry.loaded.end())
        throw std::out_of_range(common::format(
            "ModelRegistry: '%s' has no loaded v%llu", name.c_str(),
            static_cast<unsigned long long>(version)));
    std::uint64_t previous = entry.active;
    // The flip itself: one store under the mutex. Batches that pinned
    // the previous epoch keep their shared_ptr; nothing they hold is
    // touched.
    entry.active = version;
    count("registry.swaps", name);
    return previous;
}

std::shared_ptr<const ModelEpoch>
ModelRegistry::active(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry &entry = entryFor(name);
    if (entry.active == 0)
        throw std::out_of_range("ModelRegistry: model '" + name +
                                "' has no active version");
    entry.pins->add();
    return entry.loaded.at(entry.active);
}

std::shared_ptr<const ModelEpoch>
ModelRegistry::version(const std::string &name,
                       std::uint64_t version) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        return nullptr;
    auto vit = it->second.loaded.find(version);
    return vit != it->second.loaded.end() ? vit->second : nullptr;
}

std::uint64_t
ModelRegistry::activeVersion(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entryFor(name).active;
}

bool
ModelRegistry::contains(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(name) != entries_.end();
}

std::vector<std::string>
ModelRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[name, entry] : entries_) {
        (void)entry;
        out.push_back(name);
    }
    return out;
}

std::vector<std::uint64_t>
ModelRegistry::versions(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> out;
    auto it = entries_.find(name);
    if (it == entries_.end())
        return out;
    for (const auto &[version, epoch] : it->second.loaded) {
        (void)epoch;
        out.push_back(version);
    }
    return out;
}

std::size_t
ModelRegistry::unloadIdle(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        return 0;
    Entry &entry = it->second;
    std::size_t removed = 0;
    for (auto vit = entry.loaded.begin(); vit != entry.loaded.end();) {
        // use_count == 1 means the registry is the only holder: no
        // batch has this epoch pinned right now, and none can pin it
        // between the check and the erase because pinning requires this
        // mutex.
        if (vit->first != entry.active && vit->second.use_count() == 1) {
            vit = entry.loaded.erase(vit);
            count("registry.unloads", name);
            ++removed;
        } else {
            ++vit;
        }
    }
    return removed;
}

bool
ModelRegistry::unload(const std::string &name, std::uint64_t version)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end())
        return false;
    Entry &entry = it->second;
    if (version == entry.active && entry.active != 0)
        throw std::invalid_argument(common::format(
            "ModelRegistry: cannot unload the active v%llu of '%s' — "
            "swap first",
            static_cast<unsigned long long>(version), name.c_str()));
    bool erased = entry.loaded.erase(version) > 0;
    if (erased)
        count("registry.unloads", name);
    return erased;
}

}  // namespace homunculus::runtime
