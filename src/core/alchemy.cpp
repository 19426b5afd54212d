#include "core/alchemy.hpp"

#include <stdexcept>

#include "common/string_util.hpp"

namespace homunculus::core {

std::string
metricName(Metric metric)
{
    switch (metric) {
      case Metric::kF1: return "f1";
      case Metric::kAccuracy: return "accuracy";
      case Metric::kVMeasure: return "v_measure";
    }
    return "f1";
}

std::string
algorithmName(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::kDnn: return "dnn";
      case Algorithm::kSvm: return "svm";
      case Algorithm::kKMeans: return "kmeans";
      case Algorithm::kDecisionTree: return "decision_tree";
    }
    return "dnn";
}

ir::ModelKind
algorithmKind(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::kDnn: return ir::ModelKind::kMlp;
      case Algorithm::kSvm: return ir::ModelKind::kSvm;
      case Algorithm::kKMeans: return ir::ModelKind::kKMeans;
      case Algorithm::kDecisionTree: return ir::ModelKind::kDecisionTree;
    }
    return ir::ModelKind::kMlp;
}

const std::vector<Algorithm> &
allAlgorithms()
{
    static const std::vector<Algorithm> algorithms = {
        Algorithm::kDnn, Algorithm::kSvm, Algorithm::kKMeans,
        Algorithm::kDecisionTree};
    return algorithms;
}

IoMap
IoMap::identity()
{
    IoMap map;
    map.mapper = [](const std::vector<double> &features, int) {
        return features;
    };
    return map;
}

IoMap
IoMap::appendLabel()
{
    IoMap map;
    map.mapper = [](const std::vector<double> &features, int label) {
        std::vector<double> out = features;
        out.push_back(static_cast<double>(label));
        return out;
    };
    return map;
}

std::size_t
ScheduleNode::modelCount() const
{
    if (kind == Kind::kModel)
        return 1;
    std::size_t total = 0;
    for (const auto &child : children)
        total += child.modelCount();
    return total;
}

std::vector<const ModelSpec *>
ScheduleNode::leafSpecs() const
{
    std::vector<const ModelSpec *> specs;
    if (kind == Kind::kModel) {
        specs.push_back(spec.get());
        return specs;
    }
    for (const auto &child : children) {
        std::vector<const ModelSpec *> sub = child.leafSpecs();
        specs.insert(specs.end(), sub.begin(), sub.end());
    }
    return specs;
}

std::string
ScheduleNode::notation() const
{
    if (kind == Kind::kModel)
        return spec ? spec->name : "?";
    std::string sep = kind == Kind::kSequential ? " > " : " | ";
    std::string out = "(";
    for (std::size_t i = 0; i < children.size(); ++i) {
        if (i > 0)
            out += sep;
        out += children[i].notation();
    }
    out += ")";
    return out;
}

ScheduleNode
leaf(const ModelSpec &spec)
{
    ScheduleNode node;
    node.kind = ScheduleNode::Kind::kModel;
    node.spec = std::make_shared<ModelSpec>(spec);
    return node;
}

namespace {

/** Merge two nodes under a composite kind, flattening same-kind children. */
ScheduleNode
compose(ScheduleNode::Kind kind, ScheduleNode lhs, ScheduleNode rhs)
{
    ScheduleNode node;
    node.kind = kind;
    if (lhs.kind == kind) {
        node.children = std::move(lhs.children);
    } else {
        node.children.push_back(std::move(lhs));
    }
    if (rhs.kind == kind) {
        for (auto &child : rhs.children)
            node.children.push_back(std::move(child));
    } else {
        node.children.push_back(std::move(rhs));
    }
    return node;
}

}  // namespace

ScheduleNode
operator>(const ModelSpec &lhs, const ModelSpec &rhs)
{
    return compose(ScheduleNode::Kind::kSequential, leaf(lhs), leaf(rhs));
}

ScheduleNode
operator>(ScheduleNode lhs, const ModelSpec &rhs)
{
    return compose(ScheduleNode::Kind::kSequential, std::move(lhs),
                   leaf(rhs));
}

ScheduleNode
operator>(ScheduleNode lhs, ScheduleNode rhs)
{
    return compose(ScheduleNode::Kind::kSequential, std::move(lhs),
                   std::move(rhs));
}

ScheduleNode
operator|(const ModelSpec &lhs, const ModelSpec &rhs)
{
    return compose(ScheduleNode::Kind::kParallel, leaf(lhs), leaf(rhs));
}

ScheduleNode
operator|(ScheduleNode lhs, const ModelSpec &rhs)
{
    return compose(ScheduleNode::Kind::kParallel, std::move(lhs), leaf(rhs));
}

ScheduleNode
operator|(ScheduleNode lhs, ScheduleNode rhs)
{
    return compose(ScheduleNode::Kind::kParallel, std::move(lhs),
                   std::move(rhs));
}

PlatformHandle::PlatformHandle(backends::PlatformPtr platform)
    : platform_(std::move(platform))
{
    if (!platform_)
        throw std::runtime_error("PlatformHandle: null platform");
}

void
PlatformHandle::constrain(const backends::PerfConstraints &perf,
                          const ResourceBudget &resources)
{
    budget_ = resources;

    // Copy first: callers commonly pass platform().constraints(), and
    // replacing platform_ below would leave @p perf dangling.
    backends::PerfConstraints envelope = perf;

    // Each backend applies the budget fields that describe its fabric
    // (Taurus grid, MAT tables/entries, FPGA utilization/power caps) and
    // returns a reshaped instance; nullptr means nothing applied.
    if (backends::PlatformPtr rebuilt = platform_->withBudget(resources))
        platform_ = std::move(rebuilt);
    platform_->setConstraints(envelope);
}

void
PlatformHandle::schedule(const ModelSpec &spec)
{
    schedules_.push_back(leaf(spec));
}

void
PlatformHandle::schedule(ScheduleNode node)
{
    schedules_.push_back(std::move(node));
}

namespace Platforms {

PlatformHandle
taurus(backends::TaurusConfig config)
{
    return PlatformHandle(std::make_shared<backends::TaurusPlatform>(config));
}

PlatformHandle
tofino(backends::MatConfig config)
{
    return PlatformHandle(std::make_shared<backends::MatPlatform>(config));
}

PlatformHandle
fpga(backends::FpgaConfig config)
{
    return PlatformHandle(std::make_shared<backends::FpgaPlatform>(config));
}

namespace {

struct NamedPlatform
{
    const char *name;
    PlatformHandle (*make)();
};

/** Every target name, sorted; "tofino-mat" is the MAT platform's own
 *  name() and resolves like "tofino". */
const NamedPlatform kNamedPlatforms[] = {
    {"fpga", [] { return fpga(); }},
    {"taurus", [] { return taurus(); }},
    {"tofino", [] { return tofino(); }},
    {"tofino-mat", [] { return tofino(); }},
};

}  // namespace

std::vector<std::string>
names()
{
    std::vector<std::string> out;
    for (const NamedPlatform &entry : kNamedPlatforms)
        out.push_back(entry.name);
    return out;
}

Result<PlatformHandle>
byName(const std::string &name)
{
    for (const NamedPlatform &entry : kNamedPlatforms)
        if (name == entry.name)
            return entry.make();
    return Status::notFound("unknown platform '" + name +
                            "'; known platforms: " +
                            common::join(names(), ", "));
}

}  // namespace Platforms

}  // namespace homunculus::core
