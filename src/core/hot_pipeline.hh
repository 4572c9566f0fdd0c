/**
 * @file
 * The asynchronous hot-translation pipeline.
 *
 * The paper's hot phase costs ~20x cold translation per instruction
 * (Options::hot_xlate_cost_per_insn); running it inline stalls the
 * guest for the whole session. This service moves hot sessions onto
 * Options::translation_threads worker threads, exactly like the
 * background compile threads of a modern tiered JIT:
 *
 *  - The runtime snapshots everything a session needs (the decoded
 *    trace, per-block misalignment policies, the entry SpecContext)
 *    into a self-contained HotCandidate at registration time and queues
 *    it here.
 *  - A worker runs Translator::runHotSession on the candidate, with
 *    the candidate's own FaultStream, into a private staging code cache
 *    and lands the HotArtifact. That is all a worker does: it shares no
 *    mutable state with the translator, the runtime's code cache or
 *    event stream, or the other workers.
 *  - The runtime adopts artifacts only at block re-entry boundaries
 *    (the top of the dispatch loop) and publishes them into the shared
 *    ipf::CodeCache with a generation-checked commit, so the executing
 *    guest only ever sees fully-linked translations and results staged
 *    against a flushed generation are discarded.
 *
 * Determinism: guest-visible architectural state is bit-exact for a
 * fixed seed regardless of thread count, because candidates are frozen
 * at enqueue time and a hot trace is architecturally equivalent to the
 * cold code it replaces. The adoption point is fixed too: each
 * simulated worker has a cycle timeline, a candidate's completion time
 * is planned at enqueue from those timelines, and artifacts are
 * adopted in enqueue order once guest simulated time passes their
 * planned completion — so whole runs (including cycle counts) replay
 * exactly, whatever the host's thread scheduling.
 */

#ifndef EL_CORE_HOT_PIPELINE_HH
#define EL_CORE_HOT_PIPELINE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
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
 * Everything one hot session reads, snapshotted on the main thread at
 * enqueue time: decoded trace blocks (by value), the per-block
 * misalignment policy, and the unroll decision. A session is a pure
 * function of this input plus the (immutable) Options.
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
     *  address, expected bytes). Snapshotted on the main thread at
     *  freeze time — workers must never read live guest memory. */
    std::vector<std::pair<uint32_t, uint64_t>> smc_guards;
};

/** A queued hot-translation request (self-contained; workers own it). */
struct HotCandidate
{
    uint64_t seq = 0;          //!< Enqueue sequence (and fault stream id).
    int32_t cold_block_id = -1;
    uint64_t generation = 0;   //!< Code-cache generation at enqueue.
    double start_cycles = 0;   //!< Planned session start (simulated).
    double ready_cycles = 0;   //!< Planned completion (simulated time).
    unsigned worker_slot = 0;  //!< Simulated worker lane the plan chose.
    HotSessionInput input;
};

/** The result of one hot session, staged for publication. */
struct HotArtifact
{
    uint64_t seq = 0;
    uint32_t entry_eip = 0;
    int32_t cold_block_id = -1;
    uint64_t generation = 0;
    double start_cycles = 0;
    double ready_cycles = 0;
    unsigned worker_slot = 0;

    bool ok = false;             //!< Session produced a publishable trace.
    bool injected_abort = false; //!< Failed via FaultSite::HotXlateAbort.

    SpecContext spec;            //!< Entry conditions (from the input).
    std::vector<uint32_t> covered_eips; //!< Interior trace entries.
    /** SMC guard windows carried from the input: the persistence layer
     *  stores them with the artifact so a warm run can re-validate a
     *  loaded trace against live guest memory before adopting it. */
    std::vector<std::pair<uint32_t, uint64_t>> smc_guards;
    bool from_store = false;     //!< Adopted from a persistent store
                                 //!< (skip re-recording + hot counters).

    /**
     * Proto block metadata: everything except the final id and cache
     * placement (assigned at commit). ExitStub cache indices and
     * recovery maps are staging-relative / staging-independent.
     */
    BlockInfo proto;
    ipf::CodeCache staging;      //!< Emitted code at indices [0, n).

    /**
     * Per-session statistics, filled by the worker and merged into the
     * translator's shared StatGroup at adoption on the main thread —
     * workers never touch the shared group, so `translator().stats` is
     * race-free under any worker count (TSan-verified).
     */
    StatGroup stats;
};

/**
 * The session workers: a queue of HotCandidates drained by N threads
 * under one mutex and one condition variable, plus the simulated worker
 * timelines that make adoption deterministic. Everything but the
 * session itself runs on the runtime's thread.
 */
class HotPipeline
{
  public:
    /** Start max(1, @p threads) workers. Sessions read @p options and
     *  draw injected aborts from @p faults (null = none); both must
     *  outlive the pipeline. */
    HotPipeline(unsigned threads, const Options &options,
                FaultInjector *faults);
    ~HotPipeline();

    HotPipeline(const HotPipeline &) = delete;
    HotPipeline &operator=(const HotPipeline &) = delete;

    /**
     * Plan + enqueue one candidate. @p now is current guest simulated
     * time; @p session_cost the simulated cycles the session occupies a
     * worker for. Fills in seq and ready_cycles. Returns the sequence
     * number.
     */
    uint64_t enqueue(HotCandidate candidate, double now,
                     double session_cost);

    /**
     * Collect artifacts eligible for adoption at simulated time @p now:
     * in enqueue order, while the oldest outstanding candidate's
     * planned completion has been reached, blocking (wall-clock only)
     * on the worker if the artifact has not landed yet.
     */
    std::vector<HotArtifact> drain(double now);

    /** Candidates enqueued and not yet drained. */
    size_t inFlight() const { return pending_ready_.size(); }

    /**
     * Block (wall-clock only) until every enqueued candidate's session
     * has landed, then show each landed, undrained artifact to
     * @p visit in enqueue order. @p visit runs under the pipeline's
     * lock, since it reads the artifacts in place, and must not call
     * back into the pipeline. Does not drain: adoption timing is
     * unchanged.
     */
    void quiesce(const std::function<void(const HotArtifact &)> &visit);

  private:
    void workerLoop();

    const Options &options_;
    FaultInjector *faults_;

    // Shared with the workers, under mu_. One condition variable wakes
    // both sides: workers wait for a candidate (or closing_), the
    // runtime's thread for a landed artifact.
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<HotCandidate> queue_;        //!< Not yet taken.
    std::map<uint64_t, HotArtifact> landed_; //!< Landed, by seq.
    bool closing_ = false;

    // The runtime thread's bookkeeping.
    uint64_t next_seq_ = 0;
    uint64_t next_adopt_seq_ = 0;        //!< Next candidate to adopt.
    /** Planned ready time of candidate next_adopt_seq_ + i. */
    std::deque<double> pending_ready_;
    std::vector<double> worker_avail_;   //!< Simulated worker timelines.

    std::vector<std::thread> workers_; //!< Last: they use all of the above.
};

} // namespace el::core

#endif // EL_CORE_HOT_PIPELINE_HH
