/**
 * @file
 * Deterministic fault-injection harness.
 *
 * Production dynamic translators live or die on their recovery paths —
 * allocation failures, translation aborts, code-cache exhaustion and
 * guest fault storms all have to degrade gracefully rather than crash.
 * This header defines named injection sites threaded through the stack
 * (BTLib allocation, cold/hot translation, the IPF code cache, the
 * reference interpreter) and a seeded injector that fires them with a
 * configured probability, so every recovery path can be exercised
 * reproducibly by the chaos tests (tests/chaos_recovery_test.cc).
 *
 * The injector is consulted through a process-global registration so
 * distant layers (btlib, ia32) need no plumbing: when no injector is
 * installed — the default, and always the case for reference
 * interpreter runs — every site is dead and costs one pointer load.
 */

#ifndef EL_SUPPORT_FAULTINJECT_HH
#define EL_SUPPORT_FAULTINJECT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "support/random.hh"

namespace el
{

/** Named failure points the injector can fire. */
enum class FaultSite : uint8_t
{
    BtosAlloc = 0,   //!< BTLib page allocation returns 0.
    ColdXlateAbort,  //!< Cold translation aborts mid-session.
    HotXlateAbort,   //!< Hot optimization session aborts.
    CacheExhaust,    //!< Code cache reports synthetic exhaustion.
    GuestFaultStorm, //!< Spurious transient guest fault (page/div/FP).
    Miscompile,      //!< Translation succeeds but one emitted bundle is
                     //!< corrupted (the divergence sentinel's prey).
    StoreCorrupt,    //!< The artifact store writes a file with one
                     //!< flipped byte (the hardened loader's prey).
    AcctSkew,        //!< Cycle accounting silently corrupted: cycles
                     //!< added to a bucket outside the charging paths
                     //!< plus a phantom counter bump (the accounting
                     //!< auditor's prey).
    // ----- CrashPoint family: the site _exit()s the whole process ----
    // These simulate kill -9 at the crash-consistency protocol's
    // distinct windows. Each fires at most once (the process dies), and
    // the process-kill chaos harness (tests/crash_matrix_test.cc)
    // relaunches with --resume and asserts bit-exact recovery.
    CrashJournalAppend, //!< Die mid-journal-append: a torn half-frame
                        //!< is left at the journal tail.
    CrashStoreRename,   //!< Die after the temp store file is durable
                        //!< but before the atomic rename publishes it.
    CrashCheckpoint,    //!< Die mid-checkpoint-write: a torn temp file
                        //!< is left beside the intact old checkpoint.
    CrashAdopt,         //!< Die right after hot artifacts were adopted
                        //!< in memory, before their journal flush.
    NumSites,
};

/** Exit code crashNow() dies with, distinct from every documented
 *  el_run exit class so the chaos harness can tell an injected kill
 *  from a real failure. */
constexpr int crash_exit_code = 43;

/** First member of the CrashPoint family (for range checks). */
constexpr FaultSite first_crash_site = FaultSite::CrashJournalAppend;

/** True when @p site is one of the process-kill crash points. */
inline bool
isCrashSite(FaultSite site)
{
    return site >= first_crash_site && site < FaultSite::NumSites;
}

/**
 * Terminate the process immediately (no atexit handlers, no stream
 * flushing beyond the diagnostic line below) — the closest portable
 * approximation of kill -9 that injection can trigger from inside.
 */
[[noreturn]] void crashNow(FaultSite site);

constexpr std::size_t num_fault_sites =
    static_cast<std::size_t>(FaultSite::NumSites);

/** Printable site name ("btos_alloc", ...). */
const char *faultSiteName(FaultSite site);

/**
 * Injection configuration: a seed plus a per-site firing probability in
 * parts per 1024. All-zero probabilities (the default) disable the
 * subsystem entirely.
 */
struct FaultConfig
{
    uint64_t seed = 0;
    std::array<uint16_t, num_fault_sites> prob{}; //!< Per-site, /1024.
    uint64_t max_fires = 0; //!< Total firing budget; 0 = unlimited.

    bool
    enabled() const
    {
        for (uint16_t p : prob)
            if (p)
                return true;
        return false;
    }

    /** Set one site's probability (chainable in test setup). */
    FaultConfig &
    site(FaultSite s, uint16_t prob_1024)
    {
        prob[static_cast<std::size_t>(s)] = prob_1024;
        return *this;
    }
};

/**
 * Seeded, deterministic fault injector with per-site fire accounting.
 *
 * The translator and runtime consult it through shouldFire(), which
 * advances the injector's primary PRNG stream. A pipelined hot session
 * does not touch that stream (its consumption order would then depend
 * on the worker count); it derives an independent FaultStream keyed by
 * the session's sequence number instead, so its dice rolls are the
 * same whatever the worker count. Accounting (fires, consults, the
 * max_fires budget) is shared by all streams.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg)
        : cfg_(cfg), rng_(cfg.seed ? cfg.seed : 1)
    {}

    /** Roll the dice for @p site on the primary stream; true means the
     *  caller must fail. */
    bool shouldFire(FaultSite site);

    /**
     * Observer invoked on every primary-stream fire (shouldFire()
     * only: the runtime records a pipelined session's FaultStream
     * fires when it takes the session's artifact, with the session's
     * simulated timeline). The observability layer uses this to trace
     * every injected fault.
     */
    void
    setFireListener(std::function<void(FaultSite)> listener)
    {
        listener_ = std::move(listener);
    }

    /** Deterministic uniform pick in [0, n); used for storm kinds. */
    uint64_t pick(uint64_t n) { return rng_.range(n); }

    /** Seed for the derived PRNG stream @p stream_id. */
    uint64_t
    streamSeed(uint64_t stream_id) const
    {
        // SplitMix-style mix keeps derived streams uncorrelated with
        // the primary stream and with each other.
        uint64_t z = (cfg_.seed ? cfg_.seed : 1) ^
                     (0x9e3779b97f4a7c15ULL * (stream_id + 1));
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        return z ^ (z >> 27);
    }

    /**
     * Record one fire from a derived stream. Returns false when the
     * shared max_fires budget is exhausted (the caller then must NOT
     * fail).
     */
    bool recordStreamFire(FaultSite site);
    void recordStreamConsult() { ++total_consults_; }

    uint64_t
    fires(FaultSite site) const
    {
        return fires_[static_cast<std::size_t>(site)];
    }

    uint64_t totalFires() const { return total_fires_; }
    uint64_t totalConsults() const { return total_consults_; }
    const FaultConfig &config() const { return cfg_; }

  private:
    FaultConfig cfg_;
    Rng rng_;
    std::function<void(FaultSite)> listener_; //!< Primary-stream fires.
    std::array<uint64_t, num_fault_sites> fires_{};
    uint64_t total_fires_ = 0;
    uint64_t total_consults_ = 0;
};

/**
 * An independent, deterministic injection stream derived from a parent
 * injector. Used by pipelined hot sessions: the stream id is the
 * session's sequence number, so its dice rolls are a pure function of
 * (config seed, sequence number), never of which simulated worker ran
 * it. Fires are accounted into the parent and honor the shared
 * max_fires budget, which all streams spend in enqueue order.
 */
class FaultStream
{
  public:
    /** @p parent may be null: every site is then dead. */
    FaultStream(FaultInjector *parent, uint64_t stream_id)
        : parent_(parent),
          rng_(parent ? parent->streamSeed(stream_id) : 0)
    {}

    /** Roll this stream's dice for @p site. */
    bool
    shouldFire(FaultSite site)
    {
        if (!parent_)
            return false;
        parent_->recordStreamConsult();
        uint16_t p =
            parent_->config().prob[static_cast<std::size_t>(site)];
        if (!p)
            return false;
        if (rng_.range(1024) >= p)
            return false;
        return parent_->recordStreamFire(site);
    }

    /** Deterministic uniform pick in [0, n) from this stream's PRNG;
     *  used to choose which emitted instruction a miscompile corrupts.
     *  Pure function of (config seed, stream id, call order). */
    uint64_t pick(uint64_t n) { return rng_.range(n); }

  private:
    FaultInjector *parent_;
    Rng rng_;
};

/** The currently installed injector, or null (no injection). */
FaultInjector *activeFaultInjector();

/** Fast inline site check usable from any layer. */
inline bool
faultInjected(FaultSite site)
{
    FaultInjector *fi = activeFaultInjector();
    return fi && fi->shouldFire(site);
}

/**
 * RAII installation of an injector for one runtime's lifetime. The
 * previously installed injector (usually none) is restored on
 * destruction, so nested runtimes behave sanely in tests.
 */
class FaultInjectorScope
{
  public:
    FaultInjectorScope() = default;
    explicit FaultInjectorScope(const FaultConfig &cfg);
    ~FaultInjectorScope();

    FaultInjectorScope(const FaultInjectorScope &) = delete;
    FaultInjectorScope &operator=(const FaultInjectorScope &) = delete;

    /** The owned injector, or null when injection is disabled. */
    FaultInjector *get() { return owned_.active ? &owned_.injector : nullptr; }
    const FaultInjector *
    get() const
    {
        return owned_.active ? &owned_.injector : nullptr;
    }

  private:
    struct
    {
        bool active = false;
        FaultInjector injector{FaultConfig{}};
    } owned_;
    FaultInjector *previous_ = nullptr;
    bool installed_ = false;
};

/**
 * RAII suppression of the installed injector. The divergence sentinel
 * wraps its interpreter replays in this: a replay must re-execute the
 * architectural history exactly, so storm injection must neither
 * perturb it nor consume the primary injector's accounting.
 */
class FaultSuppressScope
{
  public:
    FaultSuppressScope();
    ~FaultSuppressScope();

    FaultSuppressScope(const FaultSuppressScope &) = delete;
    FaultSuppressScope &operator=(const FaultSuppressScope &) = delete;

  private:
    FaultInjector *suspended_ = nullptr;
};

} // namespace el

#endif // EL_SUPPORT_FAULTINJECT_HH
