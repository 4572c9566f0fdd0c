/**
 * @file
 * Divergence sentinel: shadow-execution policy, per-artifact health
 * ledger, and the translation-quarantine state machine.
 *
 * The paper's two-phase design assumes translations are correct; this
 * module is the runtime's way of *noticing* when one is not and
 * surviving it. The runtime (core/runtime.cc) checkpoints architectural
 * state at dispatch boundaries and — on a sampled subset of translated
 * regions — replays the region through the reference interpreter,
 * comparing final state and the net memory effect. This class holds
 * everything about that mechanism that is pure bookkeeping:
 *
 *  - the sampling decision (check every Nth region, deterministic —
 *    a counter, never wall clock, so runs are bit-identical across
 *    `translation_threads`);
 *  - the per-artifact health ledger keyed by translation entry EIP
 *    (divergence and retry counters);
 *  - the quarantine state machine:
 *
 *        Healthy -> Quarantined -> Retranslated
 *                        ^                |
 *                        |________________|
 *
 *    one divergence quarantines; a relapse returns to Quarantined,
 *    and after bounded retries the EIP is pinned to the interpreter
 *
 * Like the tracer and profiler, the sentinel is attached through a
 * non-owned `Options` pointer: when detached every hook is one
 * predictable branch, no simulated cycle is ever charged to it, and
 * counters/cycles are bit-identical with the sentinel attached or not
 * (as long as nothing diverges — after a divergence the sentinel
 * *changes* execution, which is its entire point).
 */

#ifndef EL_SUPPORT_SENTINEL_HH
#define EL_SUPPORT_SENTINEL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "support/ring.hh"
#include "support/stats.hh"

namespace el::sentinel
{

/**
 * Health of one translation artifact (keyed by entry EIP). The numbers
 * reach sentinel_shift event words b and c, so they are fixed: 1 is
 * unused.
 */
enum class Health : uint8_t
{
    Healthy = 0,      //!< No adverse evidence.
    Quarantined = 2,  //!< Blacklisted: invalidated, runs via interpreter.
    Retranslated = 3, //!< Served its quarantine; a fresh cold translation
                      //!< is allowed (relapses return to Quarantined).
};

const char *healthName(Health h);

/** Ledger row: everything known about one artifact's behavior. */
struct HealthRecord
{
    Health state = Health::Healthy;
    uint32_t divergences = 0;    //!< Shadow-execution mismatches.
    uint32_t retries = 0;        //!< Quarantine -> retranslate cycles.
    uint64_t cooldown_left = 0;  //!< Dispatches to serve under the
                                 //!< interpreter before retranslation.
    bool pinned = false;         //!< Bounded retries exhausted: this
                                 //!< EIP executes interpreted forever.
};

/** One detected divergence, kept for reporting/debugging. */
struct DivergenceInfo
{
    uint32_t checkpoint_eip = 0; //!< Region entry (rollback target).
    uint32_t boundary_eip = 0;   //!< Where the region claimed to end.
    int32_t first_block = -1;    //!< First quarantined translation id.
    uint32_t ip_lo = 0;          //!< IA-32 ip range covered by the
    uint32_t ip_hi = 0;          //!< quarantined artifacts.
    uint64_t region_index = 0;   //!< Which region (sampling counter).
};

// The sentinel's fixed limits. All deterministic; no time, no
// randomness.
constexpr uint64_t replay_budget = 1u << 20; //!< Interpreter steps
                                  //!< allowed per replay before the
                                  //!< region is declared divergent.
constexpr uint32_t retranslate_limit = 3; //!< Quarantine->retranslate
                                  //!< cycles before the EIP is pinned
                                  //!< to the interpreter.
constexpr uint64_t quarantine_cooldown = 8; //!< Dispatches served under
                                  //!< the interpreter per quarantine.
constexpr size_t divergence_log_capacity = 32; //!< Retained
                                  //!< DivergenceInfo.

/** Sentinel tunables. */
struct Config
{
    uint32_t selfcheck_rate = 0;  //!< Shadow-check every Nth region;
                                  //!< 0 disables shadow execution
                                  //!< (the ledger still runs).
};

/** The sentinel. One instance per run; attach via Options::sentinel. */
class Sentinel
{
  public:
    explicit Sentinel(Config cfg = {});

    const Config &config() const { return cfg_; }

    // ----- sampling -------------------------------------------------

    /**
     * Called once per dispatch-boundary region about to execute.
     * True when the region must be shadow-checked. Pure function of
     * the call count (and the configured rate), so thread count and
     * host scheduling cannot change which regions are checked.
     */
    bool shouldCheck();

    /** Regions seen so far (the sampling counter). */
    uint64_t regionsSeen() const { return regions_seen_; }

    // ----- health ledger feeds --------------------------------------

    /**
     * Record a shadow-execution divergence attributed to @p entry_eip.
     * A single divergence is decisive: the artifact goes straight to
     * Quarantined (or to pinned-interpreter once the retry budget is
     * spent).
     */
    void noteDivergence(uint32_t entry_eip);

    /** Append one divergence event to the bounded report log. */
    void logDivergence(const DivergenceInfo &info);

    // ----- quarantine queries (all const / side-effect free) --------

    /** True when @p eip's artifact is blacklisted from publication
     *  (Quarantined or pinned). The translator's publish path checks
     *  this before adopting a hot artifact. */
    bool isQuarantined(uint32_t eip) const;

    /** True when dispatching @p eip must run under the interpreter
     *  (quarantine cooldown in progress, or pinned). */
    bool interpretGate(uint32_t eip) const;

    // ----- quarantine transitions -----------------------------------

    /**
     * Account one interpreter-served dispatch of a quarantined @p eip.
     * When the cooldown reaches zero and retries remain, the record
     * moves to Retranslated (a fresh cold translation may be built);
     * when retries are exhausted, the EIP stays pinned.
     */
    void tickCooldown(uint32_t eip);

    // ----- observability --------------------------------------------

    /**
     * Invoked on every health-state transition (and on pinning) with
     * the entry EIP, the state left, the state entered, and whether
     * the record is now pinned. Installed by the runtime to feed the
     * flight recorder / provenance ledger; never charges cycles and
     * must not call back into the sentinel.
     */
    using TransitionFn =
        std::function<void(uint32_t eip, Health from, Health to,
                           bool pinned)>;
    void setTransitionListener(TransitionFn fn)
    {
        on_transition_ = std::move(fn);
    }

    // ----- introspection --------------------------------------------

    const HealthRecord *record(uint32_t eip) const;
    const std::map<uint32_t, HealthRecord> &ledger() const
    {
        return ledger_;
    }
    const BoundedRing<DivergenceInfo> &divergences() const
    {
        return divergence_log_;
    }

    uint64_t totalDivergences() const { return total_divergences_; }

  private:
    HealthRecord &row(uint32_t eip) { return ledger_[eip]; }

    /** Fire the transition listener when the state actually moved. */
    void
    notifyShift(uint32_t eip, Health from, bool was_pinned,
                const HealthRecord &r)
    {
        if (on_transition_ && (from != r.state || was_pinned != r.pinned))
            on_transition_(eip, from, r.state, r.pinned);
    }

    Config cfg_;
    uint64_t regions_seen_ = 0;
    uint64_t total_divergences_ = 0;
    std::map<uint32_t, HealthRecord> ledger_;
    BoundedRing<DivergenceInfo> divergence_log_;
    TransitionFn on_transition_;
};

} // namespace el::sentinel

#endif // EL_SUPPORT_SENTINEL_HH
