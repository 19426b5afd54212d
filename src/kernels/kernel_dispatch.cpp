#include "kernels/kernel_dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace homunculus::kernels {

namespace {

/** Does the CPU we are running on report this target's ISA? (Whether a
 *  table was compiled in is a separate question — see rawOps.) */
bool
hostSupports(KernelTarget target)
{
    switch (target) {
      case KernelTarget::kScalar:
        return true;
      case KernelTarget::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
}

/** The table a target's TU compiled in (nullptr when built without
 *  that ISA). */
const KernelOps *
rawOps(KernelTarget target)
{
    switch (target) {
      case KernelTarget::kScalar: return scalarOps();
      case KernelTarget::kAvx2: return avx2Ops();
    }
    return nullptr;
}

struct DispatchState
{
    std::mutex mutex;
    /** The resolved table; nullptr = not yet resolved. The pointer is
     *  the only cross-thread handoff: once published (release), the
     *  pointee is immutable. */
    std::atomic<const KernelOps *> active{nullptr};
    const char *provenance = "auto";
    bool forced = false;
    KernelTarget forcedTarget = KernelTarget::kScalar;
    /** Per-target tables with null entries patched from scalar. */
    KernelOps completed[kNumKernelTargets];
    bool completedBuilt[kNumKernelTargets] = {};
};

DispatchState &
state()
{
    static DispatchState s;
    return s;
}

/** The completed (scalar-patched) table for @p target; nullptr when
 *  the target is unavailable. Caller holds the state mutex. */
const KernelOps *
completedLocked(DispatchState &s, KernelTarget target)
{
    if (!hostSupports(target))
        return nullptr;
    const KernelOps *raw = rawOps(target);
    if (raw == nullptr)
        return nullptr;
    auto slot = static_cast<std::size_t>(target);
    if (!s.completedBuilt[slot]) {
        KernelOps table = *scalarOps();  // every entry non-null.
        table.target = raw->target;
        table.name = raw->name;
        if (raw->denseI32) table.denseI32 = raw->denseI32;
        if (raw->denseI16) table.denseI16 = raw->denseI16;
        if (raw->argmaxI32) table.argmaxI32 = raw->argmaxI32;
        if (raw->argmaxI16) table.argmaxI16 = raw->argmaxI16;
        if (raw->squaredDist) table.squaredDist = raw->squaredDist;
        if (raw->kmeansArgmin) table.kmeansArgmin = raw->kmeansArgmin;
        if (raw->svmArgmaxNarrow)
            table.svmArgmaxNarrow = raw->svmArgmaxNarrow;
        if (raw->rangeLowerBound)
            table.rangeLowerBound = raw->rangeLowerBound;
        s.completed[slot] = table;
        s.completedBuilt[slot] = true;
    }
    return &s.completed[slot];
}

KernelTarget
bestAvailable()
{
    if (hostSupports(KernelTarget::kAvx2) &&
        rawOps(KernelTarget::kAvx2) != nullptr)
        return KernelTarget::kAvx2;
    return KernelTarget::kScalar;
}

}  // namespace

const char *
kernelTargetName(KernelTarget target)
{
    switch (target) {
      case KernelTarget::kScalar: return "scalar";
      case KernelTarget::kAvx2: return "avx2";
    }
    return "?";
}

KernelTarget
parseKernelTarget(const std::string &name)
{
    if (name == "scalar")
        return KernelTarget::kScalar;
    if (name == "avx2")
        return KernelTarget::kAvx2;
    throw std::runtime_error("unknown kernel target '" + name +
                             "' (valid: scalar, avx2, auto)");
}

const KernelOps &
KernelDispatch::ops()
{
    DispatchState &s = state();
    const KernelOps *table = s.active.load(std::memory_order_acquire);
    if (table != nullptr)
        return *table;

    std::lock_guard<std::mutex> lock(s.mutex);
    table = s.active.load(std::memory_order_relaxed);
    if (table != nullptr)
        return *table;

    KernelTarget target;
    const char *provenance;
    if (s.forced) {
        target = s.forcedTarget;
        provenance = "forced";
    } else {
        const char *env = std::getenv("HOMUNCULUS_KERNELS");
        if (env != nullptr && *env != '\0' &&
            std::string(env) != "auto") {
            target = parseKernelTarget(env);  // throws on bogus values.
            if (completedLocked(s, target) == nullptr)
                throw std::runtime_error(
                    std::string("HOMUNCULUS_KERNELS=") + env +
                    ": target not available on this host");
            provenance = "env";
        } else {
            target = bestAvailable();
            provenance = "auto";
        }
    }
    table = completedLocked(s, target);
    if (table == nullptr)  // unreachable: availability checked above.
        throw std::runtime_error("KernelDispatch: no kernel table");
    s.provenance = provenance;
    s.active.store(table, std::memory_order_release);
    return *table;
}

KernelTarget
KernelDispatch::active()
{
    return ops().target;
}

const char *
KernelDispatch::provenance()
{
    ops();  // make sure a resolution happened.
    return state().provenance;
}

std::vector<KernelTarget>
KernelDispatch::available()
{
    DispatchState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<KernelTarget> out;
    for (KernelTarget target : {KernelTarget::kScalar, KernelTarget::kAvx2})
        if (completedLocked(s, target) != nullptr)
            out.push_back(target);
    return out;
}

const KernelOps *
KernelDispatch::find(KernelTarget target)
{
    DispatchState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return completedLocked(s, target);
}

void
KernelDispatch::force(KernelTarget target)
{
    DispatchState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const KernelOps *table = completedLocked(s, target);
    if (table == nullptr)
        throw std::runtime_error(
            std::string("kernel target '") + kernelTargetName(target) +
            "' is not available on this host");
    s.forced = true;
    s.forcedTarget = target;
    s.provenance = "forced";
    s.active.store(table, std::memory_order_release);
}

void
KernelDispatch::reset()
{
    DispatchState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.forced = false;
    s.provenance = "auto";
    s.active.store(nullptr, std::memory_order_release);
}

}  // namespace homunculus::kernels
