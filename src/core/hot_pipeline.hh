/**
 * @file
 * The hot-translation pipeline: the one path every hot session takes.
 *
 * The paper's hot phase costs ~20x cold translation per instruction
 * (Options::hot_xlate_cost_per_insn). Options::translation_threads
 * simulated workers can take that cost off the guest, which then waits
 * only for the snapshot and, later, the publication. With zero workers
 * the guest is the worker: it runs the session at once and waits for
 * all of it.
 *
 *  - The runtime snapshots everything a session needs (the decoded
 *    trace, per-block misalignment policies, the entry SpecContext)
 *    into a self-contained HotSessionInput and enqueues it here.
 *  - enqueue() plans the session onto the least-loaded worker timeline
 *    (with no workers, onto the guest's lane at the current cycle) and
 *    runs Translator::runHotSession at once, on the runtime's thread,
 *    with the session's own FaultStream, into the artifact's private
 *    staging code cache. The host does the work now; the simulation
 *    sees it finish at the planned ready cycle.
 *  - drain() hands finished artifacts back in enqueue order once guest
 *    simulated time reaches each one's ready cycle. The runtime adopts
 *    a worker's artifact only at a block re-entry boundary (the top of
 *    the dispatch loop), and the guest's own artifact at once. Either
 *    way it publishes it into the shared ipf::CodeCache with a
 *    generation-checked commit, so the executing guest only ever sees
 *    fully-linked translations and results staged against a flushed
 *    generation are discarded.
 *
 * Determinism: a session is a pure function of its frozen input, its
 * sequence number and the options, and the plan depends only on
 * enqueue order and simulated time, so whole runs (cycle counts
 * included) replay exactly at every worker count. The worker count
 * changes when artifacts are adopted, never the guest's architectural
 * results.
 */

#ifndef EL_CORE_HOT_PIPELINE_HH
#define EL_CORE_HOT_PIPELINE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/analysis.hh"
#include "core/blockinfo.hh"
#include "core/emit_env.hh"
#include "core/options.hh"
#include "ipf/code_cache.hh"
#include "support/faultinject.hh"
#include "support/stats.hh"

namespace el::core
{

/**
 * Everything one hot session reads, snapshotted at enqueue time:
 * decoded trace blocks (by value), the per-block misalignment policy,
 * and the unroll decision. A session is a pure function of this input
 * plus the (immutable) Options.
 */
struct HotSessionInput
{
    uint32_t entry_eip = 0;
    SpecContext spec;
    std::vector<BasicBlock> trace;   //!< Selected trace, copied.
    std::vector<MisalignPolicy> policies; //!< Per trace block.
    bool loops = false;
    unsigned copies = 1;             //!< Unroll copies of the trace.
    uint32_t trace_insns = 0;        //!< IA-32 insns in one copy.
    /** Entry EIPs of interior trace blocks (coverage at commit). */
    std::vector<uint32_t> covered_eips;
    /** SMC guards for constituent blocks on writable pages: (guest
     *  address, expected bytes). Snapshotted at freeze time: a
     *  session never reads live guest memory. */
    std::vector<std::pair<uint32_t, uint64_t>> smc_guards;
};

/** The result of one hot session, staged for publication: the trace
 *  the session emitted plus how and when it was planned. */
struct HotArtifact : HotTrace
{
    uint64_t seq = 0;          //!< Enqueue sequence (and fault stream id).
    int32_t cold_block_id = -1; //!< Source cold block; -1 = none live.
    uint64_t generation = 0;   //!< Code-cache generation at enqueue.
    double start_cycles = 0;   //!< Planned session start (simulated).
    double ready_cycles = 0;   //!< Planned completion (simulated).
    uint32_t lane = 0;         //!< Lane the plan chose: 0 = the guest
                               //!< (no workers), 1+k = worker k.

    bool ok = false;             //!< Session produced a publishable trace.
    bool injected_abort = false; //!< Failed via FaultSite::HotXlateAbort.
    bool from_store = false;     //!< Adopted from a persistent store
                                 //!< (skip re-recording + hot counters).

    /**
     * Per-session statistics, filled by the session and merged into the
     * translator's StatGroup at adoption, so `translator().stats` never
     * counts a session the guest has not yet adopted.
     */
    StatGroup stats;
};

/**
 * The simulated session workers: one cycle timeline per worker, which
 * plans each session's start and ready cycles, and the FIFO of finished
 * artifacts waiting for guest time to reach their ready cycle.
 */
class HotPipeline
{
  public:
    /** Plan onto @p workers simulated workers (0: the guest runs every
     *  session itself). Sessions read @p options and draw injected
     *  faults from @p faults (null = none); both must outlive the
     *  pipeline. */
    HotPipeline(unsigned workers, const Options &options,
                FaultInjector *faults);

    /** Simulated workers; 0 means the guest is the worker. */
    unsigned workers() const
    {
        return static_cast<unsigned>(worker_avail_.size());
    }

    /**
     * Plan one session onto the least-loaded worker (with none, onto
     * the guest's lane at @p now), run it on @p input and queue its
     * artifact. @p cold_block_id and @p generation are the cold block
     * the session replaces (-1: none) and the code-cache generation it
     * was frozen against; @p now is current guest simulated time and
     * @p session_cost the simulated cycles the session occupies its
     * lane for. Returns the queued artifact, valid until drain().
     */
    const HotArtifact &enqueue(const HotSessionInput &input,
                               int32_t cold_block_id, uint64_t generation,
                               double now, double session_cost);

    /** Remove and return the longest enqueue-order prefix of artifacts
     *  whose ready cycle guest time @p now has reached, so adoption
     *  stays in sequence order. */
    std::vector<HotArtifact> drain(double now);

    /** Artifacts enqueued and not yet drained, in enqueue order. */
    const std::deque<HotArtifact> &pending() const { return pending_; }

  private:
    const Options &options_;
    FaultInjector *faults_;
    uint64_t next_seq_ = 0;
    std::vector<double> worker_avail_; //!< Simulated worker timelines.
    std::deque<HotArtifact> pending_;
};

} // namespace el::core

#endif // EL_CORE_HOT_PIPELINE_HH
