/**
 * @file
 * The translation drivers: cold block generation (Figure 1), hot trace
 * selection and generation (Figure 2), block variants, and the block
 * map. The Runtime (runtime.hh) calls into this to service translator
 * exits.
 */

#ifndef EL_CORE_TRANSLATOR_HH
#define EL_CORE_TRANSLATOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/analysis.hh"
#include "core/blockinfo.hh"
#include "core/emit_env.hh"
#include "core/hot_pipeline.hh"
#include "core/observer.hh"
#include "core/options.hh"
#include "core/provenance.hh"
#include "core/sched.hh"
#include "ipf/code_cache.hh"
#include "mem/memory.hh"
#include "support/faultinject.hh"
#include "support/stats.hh"

namespace el::core
{

/** BTGeneric's translation engine. */
class Translator
{
  public:
    Translator(const Options &options, mem::Memory &memory,
               ipf::CodeCache &cache, uint64_t rt_base);

    /**
     * Find or create a translation entry for @p eip matching @p spec.
     * Prefers a hot version, then a stored one, then dispatchCold().
     * Returns null on untranslatable code (undecodable first
     * instruction).
     */
    BlockInfo *dispatch(uint32_t eip, const SpecContext &spec);

    /** Cold-only dispatch: a matching live cold variant, else a new
     *  cold translation. @p fresh_variant skips the lookup (Resync
     *  re-execution). */
    BlockInfo *dispatchCold(uint32_t eip, const SpecContext &spec,
                            bool fresh_variant);

    /** Translate one cold block at the given misalignment stage. */
    BlockInfo *translateCold(uint32_t eip, const SpecContext &spec,
                             MisalignStage stage);

    // ----- hot-session entry points (the runtime drives them through
    // ----- HotPipeline: prepare, run, commit) -------------------------

    /**
     * Snapshot everything a hot session needs (region discovery, trace
     * selection from the current profile counters, per-block
     * misalignment policies, the unroll decision) into @p out.
     * Returns false when no viable trace exists at @p entry_eip (the
     * caller treats this like a failed session).
     */
    bool prepareHotInput(uint32_t entry_eip, const SpecContext &spec,
                         HotSessionInput *out);

    /**
     * Run one hot emission + scheduling session against a frozen
     * input, into the artifact's private staging cache. Static: builds
     * its own EmitEnv and touches no translator state, so the pipeline
     * and perfbench's session replay can run it apart from any
     * translator. @p faults is the caller's injection stream (null =
     * no injection); the pipeline passes a per-session FaultStream so
     * injection stays deterministic across worker counts.
     */
    static void runHotSession(const HotSessionInput &input,
                              const Options &options,
                              FaultStream *faults, HotArtifact *out);

    /**
     * Publish a finished session into the shared code cache: the
     * generation-checked commit step. Discards (returning null) when
     * the artifact's generation is stale — a concurrent flushAll() GC
     * means its stubs and profile offsets refer to dead state — or when
     * publication itself would overflow the cache. On success the hot
     * block is registered, cold entries are redirected and interior
     * trace blocks are covered, exactly as a synchronous session would.
     * Session statistics carried by the artifact are merged here.
     */
    BlockInfo *commitHotArtifact(HotArtifact &artifact);

    // ----- persistent artifact store (Options::persist) --------------

    /**
     * Probe the attached artifact store for hot translations at
     * @p eip and publish every usable record through the normal
     * commit path (generation check, cold-entry redirection, coverage,
     * sentinel quarantine — identical to a live session). A record
     * whose SMC-guard window no longer matches live guest memory is
     * rejected (persist.smc_rejected): the guest patched that code
     * since the store was written, and adopting it would only bounce
     * through SmcDetected forever. Returns the adopted block matching
     * @p spec, or null when nothing usable matched (the caller then
     * proceeds to cold translation).
     */
    BlockInfo *adoptPersisted(uint32_t eip, const SpecContext &spec);

    /** Does the attached store hold records at @p eip? The runtime's
     *  hot-chaining path checks this so a LinkMiss into covered code
     *  adopts the persisted trace instead of re-translating it. */
    bool persistCovers(uint32_t eip) const;

    /** Simulated cycles one session over @p input occupies a worker. */
    double
    hotSessionCost(const HotSessionInput &input) const
    {
        return options.hot_xlate_cost_per_insn *
               (static_cast<double>(input.trace_insns) * input.copies + 1);
    }

    /** Move a block to the detailed misalignment stage (cold stage 2):
     *  retire its live variants and translate it again. The caller has
     *  recorded the misalignment (recordMisalignment). */
    BlockInfo *regenerateForMisalignment(uint32_t eip,
                                         const SpecContext &spec);

    /** Record a misalignment event against the owning cold block. */
    void recordMisalignment(uint32_t block_eip);

    /** Invalidate a hot block after a stage-3 misalignment event. */
    void discardHotBlock(BlockInfo *block);

    /**
     * Blacklist a translation the divergence sentinel convicted. The
     * entry becomes a Resync exit, so stale links re-enter the
     * runtime; the sentinel's interpret gate keeps the EIP on the
     * interpreter until its cooldown allows a fresh cold translation.
     */
    void quarantineBlock(BlockInfo *block);

    /** Drop every translation overlapping [addr, addr+len) (SMC). */
    void invalidateRange(uint32_t addr, uint32_t len);

    /**
     * Flush-and-retranslate GC: retire every live block, drop the
     * whole code cache (bumping its generation), clear the
     * indirect-lookup table and reclaim the profile-counter area.
     * Execution rebuilds lazily from cold translations. Counted as
     * recover.cache_flush.
     */
    void flushCodeCache();

    /** Flush ahead of a translation if the cache is near its cap. A
     *  session the guest runs itself (no workers) makes room before
     *  its input is frozen. */
    void maybeFlushForRoom();

    /**
     * Consume the injected-abort flag: true when the most recent
     * translation failure was a fault-injection abort (the runtime then
     * falls back to the interpreter instead of raising #UD).
     */
    bool
    takeInjectedAbort()
    {
        bool f = injected_abort_;
        injected_abort_ = false;
        return f;
    }

    BlockInfo *blockById(int32_t id);

    /** Every translation block ever created, indexed by id (stable;
     *  includes invalidated blocks). Read-only, for reporting. */
    const std::vector<std::unique_ptr<BlockInfo>> &allBlocks() const
    {
        return blocks_;
    }

    /** Stop a cold block's use counter from re-registering (covered by
     *  a hot trace, a session in flight on a worker, or a permanently
     *  failed hot translation). The Exit becomes a Nop but keeps its
     *  RegisterHot reason so enableHeat() can re-arm it. */
    void disableHeat(BlockInfo *block);

    /** Re-arm a use counter silenced by disableHeat() (a worker's hot
     *  session failed or was discarded; the block may retry). */
    void enableHeat(BlockInfo *block);

    /**
     * Restore a block's patched direct-branch exits to LinkMiss stubs.
     * While a pipeline session for the block is in flight this keeps
     * every traversal exiting to the runtime at the block end — the
     * guest makes forward progress between exits, and each exit is an
     * adoption boundary. Links re-form lazily afterwards.
     */
    void unlinkBlockExits(BlockInfo *block);

    /** Profile-counter value read from the runtime area. */
    uint32_t readCounter(int64_t off) const;

    /** Translation statistics. */
    StatGroup stats;

    /**
     * Attach the run's lifecycle hook (its sinks and simulated clock;
     * core/observer.hh). The Runtime owns @p obs. The static session
     * path never records.
     */
    void setObserver(const Observer *obs) { obs_ = obs; }

    /** Simulated translator cycles spent so far; the Runtime charges
     *  and clears them. */
    double
    takePendingOverheadCycles()
    {
        double c = pending_cycles_;
        pending_cycles_ = 0;
        return c;
    }

    /**
     * The subset of pending overhead during which the guest was stalled
     * waiting on hot translation specifically (the quantity pipeline
     * workers shrink). Runtime drains it into "hot.stall_cycles".
     */
    double
    takePendingHotStallCycles()
    {
        double c = pending_hot_stall_;
        pending_hot_stall_ = 0;
        return c;
    }

    /** Record guest stall cycles attributed to hot translation and
     *  charge them as translator overhead (a session's snapshot,
     *  publication, or the whole session with no workers). */
    void
    chargeHotStall(double cycles)
    {
        pending_cycles_ += cycles;
        pending_hot_stall_ += cycles;
    }

    const Options &options;

  private:
    struct Variant
    {
        SpecContext spec;
        BlockInfo *block;
    };

    /** Does @p spec satisfy the entry conditions of @p block? */
    static bool specMatches(const BlockInfo &block, const SpecContext &spec);

    /**
     * The one way a translation dies (SMC write, misalignment, sentinel
     * conviction, cache flush): mark @p block invalidated, turn its
     * entry into a Resync exit, and record @p kind (a = entry eip,
     * b = block id) with the ledger step {@p state, @p cause}. Callers
     * keep their own counters and pass only live blocks.
     */
    void retire(BlockInfo *block, trace::Kind kind, ProvState state,
                ProvCause cause);

    /**
     * Allocate @p bytes in the profile area; returns the offset, or -1
     * when the area is exhausted (callers skip their counters — the
     * block simply never registers hot).
     */
    int64_t allocProfile(uint32_t bytes);

    /** Cold translation body; @p allow_flush_retry bounds recursion. */
    BlockInfo *translateColdImpl(uint32_t eip, const SpecContext &spec,
                                 MisalignStage stage,
                                 bool allow_flush_retry);

    /** Translate the final control transfer of a block/trace. Pure
     *  function of its arguments. */
    static void emitBlockEnd(EmitEnv &env, const BasicBlock &bb,
                             BlockInfo *info, bool trace_mode);

    /** Scheduling counters produced by finishInto (merged into the
     *  shared StatGroup by the caller). */
    struct SchedTally
    {
        uint32_t groups = 0;
        uint32_t dead_removed = 0;
        uint32_t loads_speculated = 0;
        int64_t ipf_insns = 0;
    };

    /**
     * Finish a translation into @p cache: concatenate head+body,
     * schedule, fill BlockInfo cache placement / recovery / stubs.
     * Static: hot sessions call it against their private staging
     * cache.
     */
    static bool finishInto(EmitEnv &env, BlockInfo *info,
                           ipf::CodeCache &cache, const Options &options,
                           bool reorder, SchedTally *tally);

    /** finishInto against the shared cache + immediate stat merge. */
    bool finishBlock(EmitEnv &env, BlockInfo *info, bool reorder);

    /**
     * Miscompile injection: flip the low immediate bit of one emitted
     * instruction in [@p lo, @p hi) of @p cache, chosen by @p pick
     * (a deterministic uniform pick in [0, n)). The translation stays
     * structurally valid — it runs, and computes subtly wrong values —
     * which is exactly the failure class only the divergence sentinel
     * can catch. Returns false when the range has no candidate.
     */
    static bool corruptTranslation(ipf::CodeCache &cache, int64_t lo,
                                   int64_t hi,
                                   const std::function<uint64_t(uint64_t)> &pick);

    /** Select the hot trace starting at @p eip. */
    std::vector<const BasicBlock *>
    selectTrace(const Region &region, uint32_t eip, bool *loops);

    mem::Memory &mem_;
    ipf::CodeCache &cache_;
    uint64_t rt_base_;

    std::map<uint32_t, std::vector<Variant>> cold_map_;
    std::map<uint32_t, std::vector<Variant>> hot_map_;
    /** Store records already published this process -> block id, so a
     *  spec-mismatched dispatch never re-publishes a live record. Keys
     *  are only compared, never dereferenced. */
    std::map<const void *, int32_t> persist_adopted_;
    //! Guest eips with a recorded misalignment; they drive the
    //! stage transitions.
    std::set<uint32_t> misaligned_;
    std::vector<std::unique_ptr<BlockInfo>> blocks_;
    int64_t profile_next_ = rt::profile_base;
    double pending_cycles_ = 0;
    double pending_hot_stall_ = 0;
    bool injected_abort_ = false;
    const Observer *obs_ = &detached_observer;
};

} // namespace el::core

#endif // EL_CORE_TRANSLATOR_HH
