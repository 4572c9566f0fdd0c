/**
 * @file
 * Translator configuration.
 *
 * `Options` holds what a caller sets: the two-phase thresholds, the
 * worker count, the cache bound, and every design choice the paper
 * calls out as a switch, so the ablation benchmarks
 * (bench/ablation_design_choices) can turn each one off independently:
 * two-phase translation, unrolling, EFlags elimination, FXCH
 * elimination, the three FP/MMX/SSE speculation schemes (with the
 * FX!32-style FP-stack-in-memory fallback), load speculation, block
 * chaining, address CSE and misalignment avoidance. Observers attach
 * through its pointers.
 *
 * The named constants below are the values nothing tunes: code-shape
 * limits and the simulated cost model. The store fingerprint
 * (persist::fingerprintOf) still hashes the code-shape limits, so a
 * change to one of them invalidates every saved artifact.
 */

#ifndef EL_CORE_OPTIONS_HH
#define EL_CORE_OPTIONS_HH

#include <cstdint>

#include "support/faultinject.hh"

namespace el::trace
{
class Tracer;
} // namespace el::trace

namespace el::prof
{
class Profiler;
} // namespace el::prof

namespace el::sentinel
{
class Sentinel;
} // namespace el::sentinel

namespace el::persist
{
class ArtifactStore;
} // namespace el::persist

namespace el::metrics
{
class Registry;
} // namespace el::metrics

namespace el::core
{

class Checkpointer;

// ----- two-phase translation limits ---------------------------------
constexpr uint32_t second_registration = 2; //!< A block registering this
                                            //!< many times forces a
                                            //!< session (tight loops
                                            //!< don't wait).
constexpr unsigned analysis_window = 8;  //!< Neighbouring blocks analysed
                                         //!< during cold translation
                                         //!< (1-20).
constexpr unsigned max_trace_blocks = 8; //!< Hyper-block size limit.
constexpr unsigned max_trace_insns = 48;
constexpr unsigned unroll_factor = 2;    //!< Loop unrolling multiplier.

// ----- simulated translator costs (charged to Overhead) --------------
constexpr double cold_xlate_cost_per_insn = 60.0;
constexpr double runtime_entry_cost = 60.0;  //!< Per exit into BTGeneric.
constexpr double guard_recovery_cost = 300.0; //!< FP/SSE guard repair.
constexpr double hot_enqueue_cost = 200.0;   //!< Guest stall per candidate
                                             //!< snapshot + enqueue.
constexpr double hot_publish_cost_per_insn = 10.0; //!< Guest stall per
                                             //!< IA-32 insn when adopting
                                             //!< a finished hot
                                             //!< translation.
constexpr double cache_flush_cost = 20000.0; //!< Overhead cycles per flush.

// ----- robustness ------------------------------------------------------
constexpr uint32_t btos_alloc_retries = 8;   //!< Attempts for the
                                             //!< runtime-area allocation
                                             //!< before InitError.
constexpr uint32_t hot_retry_limit = 3;      //!< Failed hot sessions
                                             //!< before a block is
                                             //!< pinned cold forever.
constexpr uint32_t interp_fallback_insns = 32; //!< Instructions
                                             //!< interpreted when
                                             //!< translation aborts.
constexpr uint64_t audit_period = 1000000;   //!< Simulated cycles between
                                             //!< in-run closure audits.

// ----- asynchronous hot-translation pipeline ----------------------------
constexpr uint32_t max_translation_threads = 64; //!< Largest worker count
                                             //!< el_run and el_aot
                                             //!< accept (--threads).

/** Tunables and feature toggles of the translator. */
struct Options
{
    // ----- two-phase thresholds ------------------------------------
    uint32_t heat_threshold = 64;    //!< Block-use count that registers
                                     //!< the block as hot candidate.
    uint32_t hot_batch = 4;          //!< Candidates buffered before an
                                     //!< optimization session starts.

    // ----- feature toggles (ablations) ------------------------------
    bool enable_hot_phase = true;
    bool enable_unroll = true;
    bool enable_eflags_elim = true;
    bool enable_fxch_elim = true;
    bool enable_fp_stack_spec = true; //!< false => FP stack in memory
                                      //!< (the FX!32 alternative).
    bool enable_mmx_alias_spec = true;
    bool enable_sse_format_spec = true;
    bool enable_misalign_avoidance = true;
    bool enable_load_speculation = true;
    bool enable_chaining = true;
    bool enable_addr_cse = true;

    // ----- simulated translator cost (charged to Overhead) ---------
    double hot_xlate_cost_per_insn = 1200.0; //!< ~20x cold (section 2).

    // ----- asynchronous hot-translation pipeline --------------------
    uint32_t translation_threads = 0; //!< Simulated hot-session
                                      //!< workers; 0 = synchronous
                                      //!< (inline sessions). Each
                                      //!< session runs at enqueue and
                                      //!< is adopted at a block re-entry
                                      //!< boundary, in enqueue order,
                                      //!< once guest time reaches its
                                      //!< planned ready cycle.

    // ----- limits ---------------------------------------------------
    uint64_t max_run_cycles = 400ULL * 1000 * 1000;

    // ----- robustness / graceful degradation ------------------------
    uint64_t code_cache_capacity = 0; //!< Max cached IPF instructions;
                                      //!< 0 = unbounded (no GC).
    uint32_t cache_headroom = 512;    //!< Flush before translating when
                                      //!< fewer slots than this remain.

    // ----- fault injection (chaos testing; off by default) ----------
    FaultConfig fault;

    // ----- observability (off by default; zero-cost when off) -------
    trace::Tracer *trace = nullptr; //!< Chrome lifecycle capture (not
                                    //!< owned; support/trace.hh).
    bool collect_block_cycles = false; //!< Per-block cycle accounting in
                                       //!< the machine, for the run
                                       //!< report's per-block rows.
    prof::Profiler *profiler = nullptr; //!< Execution profiler (not
                                       //!< owned). Null = off; counters
                                       //!< live beside the timing model,
                                       //!< so cycles are identical
                                       //!< either way.
    sentinel::Sentinel *sentinel = nullptr; //!< Divergence sentinel +
                                       //!< quarantine ledger (not owned).
                                       //!< Null = off: no checkpoints,
                                       //!< no shadow replays, and every
                                       //!< hook is one predictable
                                       //!< branch costing zero simulated
                                       //!< cycles.
    persist::ArtifactStore *persist = nullptr; //!< Persistent hot-artifact
                                       //!< store (not owned). Null = off:
                                       //!< no recording, no dispatch-time
                                       //!< probes. Attached, published hot
                                       //!< artifacts are recorded into it
                                       //!< and dispatch adopts matching
                                       //!< records before translating.
    Checkpointer *checkpointer = nullptr; //!< In-run checkpoint driver
                                       //!< (not owned). Null = off;
                                       //!< attached, the runtime calls
                                       //!< maybeCheckpoint at adoption
                                       //!< boundaries (zero simulated
                                       //!< cycles, never with a sentinel
                                       //!< region open).

    // ----- flight recorder (ON by default; zero simulated cycles) ---
    bool flight_recorder = true;      //!< Always-on black box: the
                                      //!< runtime owns a drop-oldest
                                      //!< trace::Tracer + ProvenanceLedger
                                      //!< fed by the same hook as the
                                      //!< Chrome capture. false = neither
                                      //!< is allocated (the "compiled-out"
                                      //!< comparison point; results are
                                      //!< bit-exact either way).
    uint32_t flight_ring_capacity = 1024; //!< Last-N events kept
                                      //!< (drop-oldest).
    metrics::Registry *metrics = nullptr; //!< Telemetry snapshotter (not
                                      //!< owned). Null = off; attached,
                                      //!< the runtime registers its
                                      //!< gauges/stat groups and drives
                                      //!< Registry::maybeEmit at
                                      //!< dispatch boundaries off the
                                      //!< simulated clock.

    // ----- accounting audit (off by default; zero simulated cycles) -
    bool audit = false;               //!< Run the machine-closure audit
                                      //!< (core/audit.hh) every
                                      //!< audit_period cycles at
                                      //!< adoption boundaries; the
                                      //!< embedder (el_run --audit)
                                      //!< additionally runs the full
                                      //!< audit after quiesce. Implies
                                      //!< collect_block_cycles — the
                                      //!< closure identity needs the
                                      //!< per-block books.
};

} // namespace el::core

#endif // EL_CORE_OPTIONS_HH
