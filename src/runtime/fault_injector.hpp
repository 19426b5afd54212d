/**
 * @file
 * FaultInjector: seed-deterministic, named-site fault injection for the
 * serving plane.
 *
 * A production data-plane server has failure paths that a clean test
 * trace never exercises: an engine batch that throws, a router hop that
 * dies mid-chain, a corrupt artifact read during a hot load. The
 * injector makes every one of those paths reachable *on demand and
 * reproducibly*: code under test calls maybe("engine.run") at each
 * named site, and an armed site throws FaultInjectedError on a
 * deterministic, seed-driven subset of those calls. Determinism is the
 * contract that makes failure testing debuggable — the same seed
 * produces the same per-site fire/no-fire sequence, so "the 3rd batch
 * fails" is a repeatable fixture, not a flake.
 *
 * Arming comes from two places:
 *   - the HOMUNCULUS_FAULTS environment variable
 *     ("site:rate[:seed],site:rate[:seed],..."), parsed once into the
 *     process-global injector the first time global() is consulted —
 *     this is how CI smokes fault a stock homc run without new code;
 *   - programmatic arm()/armSpec() on any instance (ServerConfig can
 *     carry a private injector so concurrent tests don't share state).
 *
 * Cost when disarmed: maybe() is one relaxed atomic load and a return —
 * safe to leave in the hottest serving loops. Decisions for an armed
 * site are made under a mutex (per-site call counter + splitmix64 of
 * the seed), which only the faulted configurations pay.
 *
 * Well-known sites (checked by runtime/ and tools/ code):
 *   engine.run        every Server batch attempt, once per slice
 *   router.hop        every routed model execution (also checked as
 *                     "router.hop.<model>" to target one model)
 *   queue.flush       batch handoff from the RequestQueue to the batcher
 *   artifact.read     ModelRegistry::loadFile (global injector only)
 *   callback.dispatch user verdict/trace callback invocation
 *   compile.search    CompileSession family search (global injector
 *                     only) — surfaces as a Status, not a throw
 *   cache.quantize    QuantCache artifact quantization (global
 *                     injector only)
 *
 * Every fire is also mirrored as a "faults.fired" {site=...} counter in
 * the process-global telemetry registry, so --serve-stats-json dumps
 * carry the injection record alongside the serving counters.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace homunculus::runtime::faults {

/** Seed used when a spec entry leaves the seed field off. */
constexpr std::uint64_t kDefaultFaultSeed = 0xFA017u;

/** Site name constants for the hooks wired into the runtime. */
constexpr const char *kSiteEngineRun = "engine.run";
constexpr const char *kSiteRouterHop = "router.hop";
constexpr const char *kSiteQueueFlush = "queue.flush";
constexpr const char *kSiteArtifactRead = "artifact.read";
constexpr const char *kSiteCallbackDispatch = "callback.dispatch";
constexpr const char *kSiteCompileSearch = "compile.search";
constexpr const char *kSiteCacheQuantize = "cache.quantize";

/** One armed site: fire with probability @p rate per check, decided by
 *  a deterministic hash of (@p seed, per-site check counter). */
struct FaultSite
{
    std::string site;
    double rate = 0.0;                       ///< in [0, 1].
    std::uint64_t seed = kDefaultFaultSeed;
};

/** What an armed site throws when it fires. Distinguishable from real
 *  failures so tests can assert the injection reached the right
 *  handler. */
class FaultInjectedError : public std::runtime_error
{
  public:
    explicit FaultInjectedError(const std::string &site)
        : std::runtime_error("fault-injected: " + site), site_(site)
    {
    }
    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

class FaultInjector
{
  public:
    FaultInjector() = default;

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * The process-global injector, armed once (on first call) from
     * HOMUNCULUS_FAULTS when the variable is set. Hooks with no
     * per-instance injector (ModelRegistry::loadFile) consult this one.
     * @throws std::runtime_error when the env spec is malformed.
     */
    static FaultInjector &global();

    /**
     * Parse a "site:rate[:seed]" comma list. Rates must be in [0, 1];
     * seeds are full-string unsigned integers.
     * @throws std::runtime_error on any malformed entry.
     */
    static std::vector<FaultSite> parseSpec(const std::string &text);

    /** Arm (or re-arm, resetting counters) one site. */
    void arm(const std::string &site, double rate,
             std::uint64_t seed = kDefaultFaultSeed);
    /** Arm every site in a "site:rate[:seed],..." spec. */
    void armSpec(const std::string &spec);
    /** Disarm every site (counters discarded). */
    void disarm();
    /** Disarm one site. */
    void disarm(const std::string &site);

    /** Any site armed? One relaxed load — the fast-path gate. */
    bool armed() const
    {
        return armed_.load(std::memory_order_acquire);
    }

    /** The hook: no-op when nothing is armed; otherwise consult
     *  @p site's deterministic sequence and throw FaultInjectedError
     *  when it fires. */
    void maybe(const char *site)
    {
        if (!armed())
            return;
        if (shouldFail(site))
            throw FaultInjectedError(site);
    }

    /** Non-throwing form of maybe() (advances the same sequence). */
    bool shouldFail(const char *site);

    /** Times @p site fired / was checked since arming. */
    std::uint64_t fired(const std::string &site) const;
    std::uint64_t checked(const std::string &site) const;

    /** The currently armed sites (rate/seed as armed). */
    std::vector<FaultSite> sites() const;

  private:
    struct SiteState
    {
        double rate = 0.0;
        std::uint64_t seed = kDefaultFaultSeed;
        std::uint64_t checks = 0;
        std::uint64_t fired = 0;
    };

    mutable std::mutex mutex_;
    std::atomic<bool> armed_{false};
    std::map<std::string, SiteState> sites_;
};

}  // namespace homunculus::runtime::faults
