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

/** The table a target's TU compiled in, when the host can run it;
 *  nullptr when the TU was built without that ISA or the CPU lacks it. */
const KernelOps *
availableOps(KernelTarget target)
{
    if (!hostSupports(target))
        return nullptr;
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
};

DispatchState &
state()
{
    static DispatchState s;
    return s;
}

KernelTarget
bestAvailable()
{
    if (availableOps(KernelTarget::kAvx2) != nullptr)
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
            if (availableOps(target) == nullptr)
                throw std::runtime_error(
                    std::string("HOMUNCULUS_KERNELS=") + env +
                    ": target not available on this host");
            provenance = "env";
        } else {
            target = bestAvailable();
            provenance = "auto";
        }
    }
    table = availableOps(target);
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
    std::vector<KernelTarget> out;
    for (KernelTarget target : {KernelTarget::kScalar, KernelTarget::kAvx2})
        if (availableOps(target) != nullptr)
            out.push_back(target);
    return out;
}

const KernelOps *
KernelDispatch::find(KernelTarget target)
{
    return availableOps(target);
}

void
KernelDispatch::force(KernelTarget target)
{
    DispatchState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const KernelOps *table = availableOps(target);
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
