/**
 * @file
 * KernelDispatch: runtime CPU-dispatch registry over the kernel TUs.
 *
 * The host is probed once, at first use: the best compiled-in table
 * whose ISA the CPU reports (AVX2 on x86-64, scalar everywhere)
 * becomes the process-wide active table. The probe is overridable
 * without a rebuild:
 *
 *   HOMUNCULUS_KERNELS=scalar|avx2|auto   (env, read at first use)
 *   homc --kernel scalar|avx2|auto        (forces via force())
 *   ExecutablePlan::forceKernelTarget     (per-plan; an engine built
 *                                          from the plan follows it)
 *
 * Requesting a target the host can't run (or a bogus env value) is an
 * error, not a silent fallback — benchmarks and differential tests must
 * never quietly measure the wrong path.
 *
 * Thread model: ops() may be called from any number of workers
 * concurrently; resolution is serialized internally and the returned
 * table is immutable. force()/reset() are test/CLI-setup entry points —
 * call them before spinning up inference threads.
 */
#pragma once

#include <string>
#include <vector>

#include "kernels/kernel_api.hpp"

namespace homunculus::kernels {

/** Display name of a target ("scalar", "avx2"). */
const char *kernelTargetName(KernelTarget target);

/** Parse a target name (case-sensitive, matching the env contract).
 *  @throws std::runtime_error naming the valid values. "auto" is not a
 *  target — resolve it via KernelDispatch::ops(). */
KernelTarget parseKernelTarget(const std::string &name);

class KernelDispatch
{
  public:
    /**
     * The active kernel table, resolving it on first call: an explicit
     * force() wins, else HOMUNCULUS_KERNELS (when set and not "auto"),
     * else the best target the host supports.
     * @throws std::runtime_error when the env names a bogus or
     *         unsupported target.
     */
    static const KernelOps &ops();

    /** Target of the table ops() returns (resolves if needed). */
    static KernelTarget active();

    /** How the active table was chosen: "auto", "env", or "forced". */
    static const char *provenance();

    /** Every target this host can run right now (scalar always;
     *  compiled-in ISA tables only when the CPU reports the ISA). */
    static std::vector<KernelTarget> available();

    /** The table for @p target, or nullptr when the target
     *  is not available on this host. Does not change the active
     *  table — differential tests run several targets side by side. */
    static const KernelOps *find(KernelTarget target);

    /** Pin the active table to @p target (wins over the env).
     *  @throws std::runtime_error when unavailable on this host. */
    static void force(KernelTarget target);

    /** Drop any resolution and force(): the next ops() re-reads the
     *  env and re-probes. Test hook. */
    static void reset();
};

}  // namespace homunculus::kernels
