/**
 * @file
 * BTGeneric's runtime: the dispatch loop of Figure 2/3.
 *
 * Owns the IPF machine, the code cache and the translator; converses
 * with the OS exclusively through the BTOS API (btlib::BtOsClient). It
 * services every translated-code exit: linking, indirect lookups, hot
 * registration and optimization sessions, system calls, speculation
 * guard recovery, misalignment stage transitions, SMC invalidation, and
 * precise exception reconstruction (section 4).
 */

#ifndef EL_CORE_RUNTIME_HH
#define EL_CORE_RUNTIME_HH

#include <deque>
#include <memory>

#include "btlib/btos.hh"
#include "core/hot_pipeline.hh"
#include "core/observer.hh"
#include "core/options.hh"
#include "core/provenance.hh"
#include "core/translator.hh"
#include "ia32/state.hh"
#include "ipf/machine.hh"
#include "mem/memory.hh"
#include "support/audit.hh"
#include "support/faultinject.hh"
#include "support/ring.hh"
#include "support/sentinel.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace el::core
{

/** How a runtime run() finished. */
struct RunResult
{
    enum class Kind
    {
        Exit,       //!< Guest exited (code in exit_code).
        Fault,      //!< Unhandled guest fault (terminated).
        CycleLimit, //!< Simulation budget exhausted.
        InitError,  //!< Runtime never came up (see initError()).
    };

    Kind kind = Kind::Exit;
    int32_t exit_code = 0;
    ia32::Fault fault{};
};

/** The IA-32 EL runtime (BTGeneric). */
class Runtime
{
  public:
    Runtime(mem::Memory &memory, const btlib::BtOsVtable &vtable,
            Options options = {});

    /** False if the BTOS handshake or runtime-area allocation failed. */
    bool initOk() const { return btos_.ok() && rt_base_ != 0; }
    /** Why init failed (empty when initOk()). */
    const std::string &initError() const { return init_error_; }

    /** The fault injector active for this runtime (null: no injection). */
    const FaultInjector *faultInjector() const { return inject_scope_.get(); }

    /** Run the guest from state.eip until exit/fault/limit. */
    RunResult run(ia32::State &state);

    ipf::Machine &machine() { return *machine_; }
    Translator &translator() { return *translator_; }
    const mem::Memory &memory() const { return mem_; }
    ipf::CodeCache &codeCache() { return cache_; }
    StatGroup &stats() { return stats_; }
    const Options &options() const { return options_; }
    uint64_t rtBase() const { return rt_base_; }

    /**
     * Overhead cycles spent repairing faults at runtime (speculation
     * guard recovery). A subset of the machine's Overhead bucket; the
     * attribution report moves it into "fault handling" alongside the
     * misalignment penalties the machine tracks per bucket.
     */
    double faultOverheadCycles() const { return fault_overhead_cycles_; }

    /** Dispatch-loop lookups serviced so far (monotonic). */
    uint64_t dispatchLookups() const { return dispatch_lookups_; }

    /**
     * Violations found by the periodic in-run closure audit
     * (Options::audit). Empty when auditing is off or the books
     * closed. The embedder merges this into its end-of-run full audit
     * so a corruption that appeared mid-run is reported even if later
     * churn happened to re-balance the totals.
     */
    const audit::Result &auditFindings() const { return audit_findings_; }

    /** The always-on black box (null when Options disabled it). */
    const trace::Tracer *blackBox() const { return box_.get(); }

    /** The artifact provenance ledger (null when disabled). */
    ProvenanceLedger *provenance() { return provenance_.get(); }
    const ProvenanceLedger *provenance() const
    {
        return provenance_.get();
    }

    /**
     * Record the worker-lane events of pipelined sessions not yet
     * adopted, so the event stream is complete. Call after run()
     * before snapshotting the recorder (runReportJson() calls it);
     * calling it again records nothing twice.
     */
    void quiesce();

    /** Copy guest architectural state into the machine + runtime area. */
    void loadContext(const ia32::State &state);

    /** Rebuild the guest architectural state from the machine. */
    void storeContext(ia32::State *state, uint32_t eip);

  private:
    /** Entry-condition snapshot from the runtime status bytes. */
    SpecContext currentSpec() const;

    /** Find/translate the block for @p eip; returns its cache entry. */
    int64_t dispatchEntry(uint32_t eip, bool force_cold,
                          bool fresh_cold = false);

    /** Recover from a speculation guard failure. */
    void recoverGuard(BlockInfo *block, int64_t payload_kind);

    /** Build precise state at a hot-code fault via the recovery map. */
    void reconstructHot(const BlockInfo &block, const ipf::Instr &instr,
                        ia32::State *state);

    /** Evaluate a lazy flag recipe against machine registers. */
    uint32_t evalFlagRecipe(const FlagRecipe &recipe) const;

    uint64_t grAt(const Loc &loc, unsigned guest_reg) const;

    /** Handle the RegisterHot protocol; may run or enqueue a session. */
    void registerHot(int32_t block_id);

    /**
     * Snapshot a hot candidate and hand it to the pipeline, which runs
     * the session on a simulated worker. The block's use counter is
     * silenced while the session is in flight and re-armed if the
     * session fails or is discarded.
     */
    void enqueueHot(BlockInfo *cand, const SpecContext &spec);

    /**
     * Adoption point (top of the dispatch loop, i.e. a block re-entry
     * boundary): publish finished pipeline sessions into the shared
     * code cache. No-op when the pipeline is off or idle.
     */
    void adoptHotResults();

    /** Record a pipelined session's worker-lane events, once per
     *  session, when its artifact is adopted or quiesce() sees it. */
    void recordSession(const HotArtifact &art);

    /** Charge accumulated translator cycles to Overhead and fold the
     *  hot-stall share into the "hot.stall_cycles" statistic. */
    void chargeTranslatorOverhead();

    /**
     * Bounded-retry accounting for a failed hot session: after
     * hot_retry_limit failures the block is pinned cold.
     */
    void noteHotFailure(BlockInfo *block);

    /**
     * Safety net when translation aborts (fault injection): execute a
     * few guest instructions under the reference interpreter, then
     * resume translated execution. Returns false when run() must
     * return (guest exit / unhandled fault), with @p result filled.
     */
    bool interpretFallback(ia32::State *state, RunResult *result,
                           uint32_t *next_eip);

    /** Deliver a guest fault; returns true to continue running. */
    bool deliverFault(ia32::State *state, const ia32::Fault &fault,
                      RunResult *result);

    // ----- divergence sentinel (attached via Options::sentinel) ------

    /** How a shadow-checked region ended. */
    enum class RegionEnd : uint8_t
    {
        Boundary, //!< Ordinary dispatch boundary (block exit).
        Syscall,  //!< Region ended at a syscall gate (pre-service).
        Fault,    //!< Region ended at a guest fault (pre-delivery).
    };

    /**
     * Open a shadow-checked region at @p eip: snapshot architectural
     * state, arm the memory write journal (runtime area excluded) and
     * the machine's translation-visit log. Zero simulated cycles.
     */
    void armCheckpoint(uint32_t eip);

    /** Close an armed region without verification (halt, breakpoint,
     *  cycle limit); @p why_stat names the skip counter. */
    void discardCheckpoint(const char *why_stat);

    /**
     * Close an armed region WITH verification: rewind memory to the
     * checkpoint, replay the region through the interpreter oracle, and
     * compare final architectural state + net memory effect against the
     * machine's (@p mstate, whose eip is the region end). On a pass the
     * machine's execution is reinstated byte-exactly and true returns.
     * On a divergence every translation the region visited is
     * quarantined, state and memory roll back to the checkpoint, and
     * false returns — the caller resumes at the checkpoint EIP (where
     * the sentinel's interpret gate now routes to the oracle).
     */
    bool finishRegionCheck(RegionEnd kind, const ia32::State &mstate,
                           uint8_t vector, const ia32::Fault *fault);

    /** The interpreter replay; true when it reproduced the machine. */
    bool replayMatches(RegionEnd kind, const ia32::State &mstate,
                       uint8_t vector, const ia32::Fault *fault,
                       mem::WriteJournal *replay_journal);

    /** Quarantine every artifact in the visit log; log the event. */
    void quarantineRegion(uint32_t end_eip);

    mem::Memory &mem_;
    btlib::BtOsClient btos_;
    Options options_;
    FaultInjectorScope inject_scope_; //!< Installed for our lifetime.
    ipf::CodeCache cache_;
    std::unique_ptr<ipf::Machine> machine_;
    std::unique_ptr<Translator> translator_;
    std::unique_ptr<HotPipeline> hot_pipeline_; //!< Null: sessions
                                                //!< run inline.
    uint64_t rt_base_ = 0;
    std::string init_error_; //!< initError().
    StatGroup stats_;
    std::deque<int32_t> hot_queue_;
    prof::Profiler *profiler_ = nullptr; //!< From Options; null = off.
    // The always-on black box. Owned here, unlike the opt-in observers,
    // which callers attach.
    std::unique_ptr<trace::Tracer> box_;
    std::unique_ptr<ProvenanceLedger> provenance_;
    Observer obs_; //!< The lifecycle hook over all three sinks.
    uint64_t dispatch_lookups_ = 0; //!< dispatchEntry() calls (the
                                    //!< dispatch_lookups metrics gauge).
    uint64_t sessions_recorded_ = 0; //!< Pipelined sessions whose
                                     //!< events are recorded.
    double fault_overhead_cycles_ = 0;
    double next_audit_ = 0;         //!< Next in-run closure audit, in
                                    //!< simulated cycles.
    audit::Result audit_findings_;  //!< Accumulated in-run violations.

    // Divergence-sentinel checkpoint state. All dead weight when
    // sentinel_ is null (one branch per dispatch, zero cycles).
    sentinel::Sentinel *sentinel_ = nullptr; //!< From Options; null = off.
    bool ck_armed_ = false;      //!< A shadow-checked region is open.
    uint32_t ck_eip_ = 0;        //!< Region entry (rollback target).
    ia32::State ck_state_;       //!< Architectural state at the entry.
    mem::WriteJournal journal_;  //!< Machine-side writes of the region.
    static constexpr size_t sentinel_visit_capacity = 128;
    BoundedRing<int32_t> visit_log_{sentinel_visit_capacity,
                                    RingPolicy::DropNewest};
};

} // namespace el::core

#endif // EL_CORE_RUNTIME_HH
