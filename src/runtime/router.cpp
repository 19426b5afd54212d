#include "runtime/router.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "common/string_util.hpp"

namespace homunculus::runtime {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNoModel = std::numeric_limits<std::size_t>::max();

}  // namespace

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::kClosed: return "closed";
      case BreakerState::kOpen: return "open";
      case BreakerState::kHalfOpen: return "half-open";
    }
    return "closed";
}

Router::Router(std::shared_ptr<ModelRegistry> registry, RouteConfig config,
               telemetry::MetricRegistry *metrics)
    : registry_(std::move(registry)), config_(std::move(config)),
      metricsOwned_(metrics != nullptr
                        ? nullptr
                        : std::make_unique<telemetry::MetricRegistry>()),
      metrics_(metrics != nullptr ? metrics : metricsOwned_.get())
{
    if (!registry_)
        throw std::runtime_error("Router: registry is null");
    if (config_.defaultModel.empty())
        throw std::runtime_error("Router: defaultModel is empty");
    if (config_.maxChainDepth == 0)
        throw std::runtime_error("Router: maxChainDepth must be >= 1");

    // Resolve every referenced model once, in route order (default,
    // lane bindings, chain endpoints), deduplicated — the index into
    // models_ is the identity runBatch and the stats use.
    auto intern = [this](const std::string &name) {
        auto it = std::find(models_.begin(), models_.end(), name);
        if (it != models_.end())
            return static_cast<std::size_t>(it - models_.begin());
        if (!registry_->contains(name))
            throw std::runtime_error(
                "Router: model '" + name + "' is not loaded");
        models_.push_back(name);
        return models_.size() - 1;
    };

    defaultModel_ = intern(config_.defaultModel);
    laneModel_.reserve(config_.laneModels.size());
    for (const std::string &name : config_.laneModels)
        laneModel_.push_back(name.empty() ? defaultModel_ : intern(name));
    for (const ChainRule &rule : config_.chain) {
        intern(rule.fromModel);
        intern(rule.toModel);
    }
    for (const FallbackRule &rule : config_.fallbacks) {
        intern(rule.model);
        if (!rule.toModel.empty())
            intern(rule.toModel);
    }

    // All routed models consume the same admitted row, so their input
    // widths must agree; pin each model's class count for rule checks.
    std::vector<int> classes(models_.size(), 0);
    for (std::size_t m = 0; m < models_.size(); ++m) {
        std::shared_ptr<const ModelEpoch> epoch =
            registry_->active(models_[m]);
        classes[m] = epoch->numClasses();
        if (m == 0) {
            inputDim_ = epoch->inputDim();
        } else if (epoch->inputDim() != inputDim_) {
            throw std::runtime_error(common::format(
                "Router: model '%s' consumes %zu features but '%s' "
                "consumes %zu — routed models must share one schema",
                models_[m].c_str(), epoch->inputDim(),
                models_[0].c_str(), inputDim_));
        }
    }

    nextModel_.resize(models_.size());
    for (std::size_t m = 0; m < models_.size(); ++m)
        nextModel_[m].assign(static_cast<std::size_t>(classes[m]),
                             kNoModel);
    for (const ChainRule &rule : config_.chain) {
        std::size_t from = indexOf(rule.fromModel);
        std::size_t to = indexOf(rule.toModel);
        if (rule.label < 0 || rule.label >= classes[from])
            throw std::runtime_error(common::format(
                "Router: chain rule label %d is outside '%s' %d-class "
                "output space",
                rule.label, rule.fromModel.c_str(), classes[from]));
        std::size_t slot = static_cast<std::size_t>(rule.label);
        if (nextModel_[from][slot] != kNoModel)
            throw std::runtime_error(common::format(
                "Router: duplicate chain rule for ('%s', label %d)",
                rule.fromModel.c_str(), rule.label));
        nextModel_[from][slot] = to;
    }

    // Fallback rules: exactly one destination each (a model or a static
    // verdict in the broken model's class space), at most one per
    // model, no self-loops.
    fallbackModel_.assign(models_.size(), kNoModel);
    fallbackLabel_.assign(models_.size(), -1);
    for (const FallbackRule &rule : config_.fallbacks) {
        std::size_t from = indexOf(rule.model);
        bool has_model = !rule.toModel.empty();
        bool has_label = rule.label >= 0;
        if (has_model == has_label)
            throw std::runtime_error(common::format(
                "Router: fallback for '%s' must name a model or a "
                "label, not %s",
                rule.model.c_str(), has_model ? "both" : "neither"));
        if (fallbackModel_[from] != kNoModel || fallbackLabel_[from] >= 0)
            throw std::runtime_error(common::format(
                "Router: duplicate fallback rule for '%s'",
                rule.model.c_str()));
        if (has_model) {
            std::size_t to = indexOf(rule.toModel);
            if (to == from)
                throw std::runtime_error(common::format(
                    "Router: fallback for '%s' routes to itself",
                    rule.model.c_str()));
            fallbackModel_[from] = to;
        } else {
            if (rule.label >= classes[from])
                throw std::runtime_error(common::format(
                    "Router: fallback label %d is outside '%s' "
                    "%d-class output space",
                    rule.label, rule.model.c_str(), classes[from]));
            fallbackLabel_[from] = rule.label;
        }
    }
    breakers_.resize(models_.size());

    // Instruments, registered up front (even the ones this config can
    // never bump, so exports always carry the full breaker key set).
    deadlineTruncated_ = &metrics_->counter("router.deadline_truncated");
    modelIns_.resize(models_.size());
    for (std::size_t m = 0; m < models_.size(); ++m) {
        telemetry::Labels labels{{"model", models_[m]}};
        ModelInstruments &ins = modelIns_[m];
        ins.hops = &metrics_->counter("router.hops", labels);
        ins.hopRows = &metrics_->counter("router.hop_rows", labels);
        ins.opens = &metrics_->counter("router.breaker.opens", labels);
        ins.failures =
            &metrics_->counter("router.breaker.failures", labels);
        ins.probes = &metrics_->counter("router.breaker.probes", labels);
        ins.fallbackRows =
            &metrics_->counter("router.breaker.fallback_rows", labels);
    }
}

std::size_t
Router::indexOf(const std::string &model) const
{
    auto it = std::find(models_.begin(), models_.end(), model);
    return static_cast<std::size_t>(it - models_.begin());
}

const std::string &
Router::modelForLane(std::size_t lane) const
{
    return models_[lane < laneModel_.size() ? laneModel_[lane]
                                            : defaultModel_];
}

void
Router::snapshot(Snapshot &out) const
{
    out.epochs.clear();
    for (const std::string &name : models_)
        out.epochs.push_back(registry_->active(name));
}

bool
Router::breakerAllows(std::size_t model) const
{
    std::lock_guard<std::mutex> lock(breakerMutex_);
    Breaker &breaker = breakers_[model];
    switch (breaker.state) {
      case BreakerState::kClosed:
      case BreakerState::kHalfOpen:
        return true;
      case BreakerState::kOpen: {
        auto cooled = breaker.openedAt +
                      std::chrono::microseconds(config_.breakerCooldownUs);
        if (Clock::now() < cooled)
            return false;
        // Cooldown elapsed: half-open and let this group through as
        // the probe. Its outcome (recordSuccess / recordFailure)
        // decides whether the breaker closes or reopens.
        breaker.state = BreakerState::kHalfOpen;
        modelIns_[model].probes->add();
        return true;
      }
    }
    return true;
}

void
Router::recordFailure(std::size_t model) const
{
    std::lock_guard<std::mutex> lock(breakerMutex_);
    Breaker &breaker = breakers_[model];
    modelIns_[model].failures->add();
    ++breaker.consecutive;
    bool reopen = breaker.state == BreakerState::kHalfOpen;
    bool trip = breaker.state == BreakerState::kClosed &&
                breaker.consecutive >= config_.breakerThreshold;
    if (reopen || trip) {
        breaker.state = BreakerState::kOpen;
        breaker.openedAt = Clock::now();
        modelIns_[model].opens->add();
    }
}

void
Router::recordSuccess(std::size_t model) const
{
    std::lock_guard<std::mutex> lock(breakerMutex_);
    Breaker &breaker = breakers_[model];
    breaker.consecutive = 0;
    if (breaker.state == BreakerState::kHalfOpen)
        breaker.state = BreakerState::kClosed;
}

BreakerSnapshot
Router::breaker(std::size_t model) const
{
    // The state-machine fields come from under the mutex; the
    // monotonic counts are views over the registry counters.
    std::lock_guard<std::mutex> lock(breakerMutex_);
    const Breaker &breaker = breakers_.at(model);
    const ModelInstruments &ins = modelIns_.at(model);
    BreakerSnapshot snap;
    snap.state = breaker.state;
    snap.opens = ins.opens->value();
    snap.failures = ins.failures->value();
    snap.consecutiveFailures = breaker.consecutive;
    snap.probes = ins.probes->value();
    snap.fallbackRows = ins.fallbackRows->value();
    return snap;
}

RouteBatchOutcome
Router::runBatch(const Snapshot &snapshot, std::size_t lane,
                 const Request *requests, std::size_t rows,
                 std::vector<int> &final_labels,
                 std::vector<RouteTrace> *traces,
                 std::vector<RouteStepStats> &steps,
                 Scratch &scratch,
                 faults::FaultInjector *injector) const
{
    RouteBatchOutcome outcome;
    final_labels.assign(rows, 0);
    steps.clear();
    if (traces) {
        traces->resize(rows);
        for (RouteTrace &trace : *traces)
            trace.hops.clear();
    }
    if (rows == 0)
        return outcome;

    if (scratch.input.cols() != inputDim_)
        scratch.input = math::Matrix(rows, inputDim_);
    scratch.current.resize(models_.size());
    scratch.next.resize(models_.size());
    for (std::vector<std::size_t> &group : scratch.current)
        group.clear();
    for (std::vector<std::size_t> &group : scratch.next)
        group.clear();

    // Round 0: every row enters at its lane's model.
    std::size_t entry =
        lane < laneModel_.size() ? laneModel_[lane] : defaultModel_;
    scratch.current[entry].reserve(rows);
    for (std::size_t r = 0; r < rows; ++r)
        scratch.current[entry].push_back(r);

    for (std::size_t depth = 0; depth < config_.maxChainDepth; ++depth) {
        bool any = false;
        // Breaker gate, before any execution this round: a group bound
        // for an open breaker follows the fallback chain — merging into
        // another model's group (executed below, same round) or
        // resolving to the static verdict. Gating the whole round first
        // keeps redirects independent of model iteration order.
        if (config_.breakerThreshold != 0) {
            for (std::size_t m = 0; m < models_.size(); ++m) {
                std::vector<std::size_t> &group = scratch.current[m];
                if (group.empty())
                    continue;
                std::size_t target = m;
                int static_label = -1;
                // Bounded walk: each step moves to a distinct model, so
                // models_.size() steps either find a runnable target or
                // prove every fallback on the path is open too.
                std::size_t steps_taken = 0;
                while (!breakerAllows(target)) {
                    modelIns_[target].fallbackRows->add(group.size());
                    if (fallbackLabel_[target] >= 0) {
                        static_label = fallbackLabel_[target];
                        break;
                    }
                    if (fallbackModel_[target] == kNoModel ||
                        ++steps_taken > models_.size())
                        throw std::runtime_error(common::format(
                            "router: model '%s' circuit breaker is "
                            "open and no fallback is available",
                            models_[target].c_str()));
                    target = fallbackModel_[target];
                }
                if (static_label >= 0) {
                    // The broken model's static verdict: the row is
                    // final — no chain rule fires off a fallback label.
                    for (std::size_t r : group) {
                        final_labels[r] = static_label;
                        if (traces)
                            (*traces)[r].hops.push_back(
                                {models_[target], 0, static_label});
                    }
                    outcome.fallbackRows += group.size();
                    group.clear();
                } else if (target != m) {
                    outcome.fallbackRows += group.size();
                    scratch.current[target].insert(
                        scratch.current[target].end(), group.begin(),
                        group.end());
                    group.clear();
                }
            }
        }
        // One round: each model with pending rows runs them as one
        // engine batch against its *snapshot* epoch.
        for (std::size_t m = 0; m < models_.size(); ++m) {
            const std::vector<std::size_t> &group = scratch.current[m];
            if (group.empty())
                continue;
            any = true;
            const ModelEpoch &epoch = *snapshot.epochs[m];

            // Gather the group's raw rows, applying this epoch's
            // artifact scaler — each hop standardizes with its own
            // model's training moments, never a neighbor's.
            scratch.input.resizeRows(group.size());
            for (std::size_t g = 0; g < group.size(); ++g) {
                const double *raw = requests[group[g]].features.data();
                double *row = scratch.input.rowPtr(g);
                if (epoch.scaler) {
                    const std::vector<double> &means =
                        epoch.scaler->means();
                    const std::vector<double> &stds =
                        epoch.scaler->stddevs();
                    for (std::size_t c = 0; c < inputDim_; ++c)
                        row[c] = (raw[c] - means[c]) / stds[c];
                } else {
                    for (std::size_t c = 0; c < inputDim_; ++c)
                        row[c] = raw[c];
                }
            }
            scratch.labels.resize(group.size());

            auto started = Clock::now();
            try {
                if (injector && injector->armed()) {
                    injector->maybe(faults::kSiteRouterHop);
                    injector->maybe(
                        (std::string(faults::kSiteRouterHop) + "." +
                         models_[m])
                            .c_str());
                }
                epoch.engine.run(scratch.input, scratch.labels.data(),
                                 scratch.engine);
            } catch (...) {
                // The batch is the caller's to fail or retry; the
                // breaker just learns this model is misbehaving.
                if (config_.breakerThreshold != 0)
                    recordFailure(m);
                throw;
            }
            if (config_.breakerThreshold != 0)
                recordSuccess(m);
            auto finished = Clock::now();

            modelIns_[m].hops->add();
            modelIns_[m].hopRows->add(group.size());

            RouteStepStats step;
            step.model = m;
            step.version = epoch.version;
            step.rows = group.size();
            step.engineUs =
                std::chrono::duration<double, std::micro>(finished -
                                                          started)
                    .count();
            steps.push_back(step);

            for (std::size_t g = 0; g < group.size(); ++g) {
                std::size_t r = group[g];
                int label = scratch.labels[g];
                // Every hop writes the row's label; a later hop simply
                // overwrites, so the last executed model's verdict is
                // final without tracking terminal rows separately.
                final_labels[r] = label;
                if (traces)
                    (*traces)[r].hops.push_back(
                        {models_[m], epoch.version, label});
                std::size_t successor =
                    static_cast<std::size_t>(label) < nextModel_[m].size()
                        ? nextModel_[m][static_cast<std::size_t>(label)]
                        : kNoModel;
                if (successor != kNoModel &&
                    depth + 1 < config_.maxChainDepth) {
                    // Deadline gate: a row over its admission budget
                    // keeps this hop's label instead of starting a hop
                    // it can't afford.
                    if (config_.deadlineUs != 0 &&
                        finished >=
                            requests[r].enqueuedAt +
                                std::chrono::microseconds(
                                    config_.deadlineUs)) {
                        ++outcome.deadlineTruncated;
                        deadlineTruncated_->add();
                    } else
                        scratch.next[successor].push_back(r);
                }
            }
        }
        if (!any)
            break;
        std::swap(scratch.current, scratch.next);
        for (std::vector<std::size_t> &group : scratch.next)
            group.clear();
    }
    return outcome;
}

}  // namespace homunculus::runtime
