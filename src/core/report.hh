/**
 * @file
 * Machine-readable run documents: the run report (cycle attribution in
 * the paper's Figure 6 categories, per-block cycle rows, the full
 * counter set, and why and how the run ended) and the execution
 * profile, serialized as JSON.
 *
 * The attribution buckets the machine's per-bucket cycle totals into
 * the categories Figure 6 plots — time in cold code, time in hot code,
 * time in BTGeneric (the runtime), and fault + misalignment handling —
 * plus the native/idle time Figures 7 and 8 need. Every simulated cycle
 * lands in exactly one category, and all cycle values are
 * integer-valued doubles, so the categories sum to the machine's total
 * cycle count *exactly* (bit-identical, not approximately).
 */

#ifndef EL_CORE_REPORT_HH
#define EL_CORE_REPORT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "support/buildinfo.hh"
#include "support/stats.hh"

namespace el::prof
{
class Profiler;
} // namespace el::prof

namespace el::ia32
{
struct State;
} // namespace el::ia32

namespace el::core
{

class Runtime;

/**
 * The architectural outcome of one guest run, reduced to comparable
 * scalars: a warm-start, resumed or pre-translated run must reproduce
 * the whole object bit-for-bit against a cold run, and CI diffs it
 * across cache states. Hashes are rendered as hex strings in the JSON
 * (64-bit values do not survive a round trip through JSON doubles).
 */
struct GuestResult
{
    bool exited = false;
    int32_t exit_code = 0;
    uint64_t state_hash = 0;   //!< Hash of the final ia32::State.
    uint64_t console_hash = 0; //!< Hash of the guest console output.

    bool operator==(const GuestResult &) const = default;
};

/** Reduce a final guest state + console to a GuestResult. */
GuestResult guestResultOf(const ia32::State &state,
                          const std::string &console, bool exited,
                          int32_t exit_code);

/** Simulated cycles bucketed into the paper's Figure 6 categories. */
struct Attribution
{
    double cold_code = 0;      //!< Executing cold translations.
    double hot_code = 0;       //!< Executing hot traces.
    double btgeneric = 0;      //!< BTGeneric: translation + dispatch.
    double fault_handling = 0; //!< Misalignment penalties + guard repair.
    double native = 0;         //!< Kernel/native time (Figure 7).
    double idle = 0;           //!< Idle time (Figure 7).

    /** Exact sum of the categories (== Machine::totalCycles()). */
    double
    total() const
    {
        return cold_code + hot_code + btgeneric + fault_handling +
               native + idle;
    }
};

/** Compute the attribution for a finished (or paused) runtime. */
Attribution attributionOf(Runtime &rt);

/**
 * The one counter namespace every artifact reports: translator and
 * runtime counters (the translator's only once the runtime came up),
 * the attached store's persist.* counters, and each observer's
 * overflow count. A nonzero *.dropped_* value flags an incomplete
 * event stream — the first thing to check before trusting a trace or
 * flight.
 */
StatGroup mergedStats(Runtime &rt);

/** What the embedder knows about the run a report describes. */
struct ReportInfo
{
    std::string workload;          //!< Workload name (image path).
    std::string exit_class = "ok"; //!< "ok", "guest_fault", "internal",
                                   //!< "divergence" or "audit".
    int exit_code = 0;             //!< Process exit code being reported.
    bool resumed = false;          //!< Run was restored from a checkpoint.
    uint64_t checkpoint_seq = 0;   //!< Capture ordinal resumed from.
    std::optional<GuestResult> guest; //!< Unset omits the guest object.
    //! Build stamp; null leaves the report unstamped.
    const buildinfo::ProducerStamp *producer = nullptr;
};

/**
 * The run report as a JSON object string (kind "el-report", version
 * 2). Quiesces the runtime first, so in-flight pipeline sessions land
 * and the event tail is the same on every run. Sections:
 *  - exit: the class and code, checkpoint resumption, and the init
 *    error of a runtime that never came up;
 *  - cycles, retired_ipf_insns, misaligned_accesses, attribution,
 *    buckets and — when the machine kept per-block books
 *    (Options::collect_block_cycles or Options::audit) — one row per
 *    translation block (all absent when init failed: nothing ran);
 *  - guest, stats (the mergedStats() namespace);
 *  - flight (the black box's last-N events), provenance (every entry
 *    point's lifecycle, flagging the translations live at exit),
 *    sentinel (the health ledger and divergence log) and
 *    fault_injection (seed and per-site fires), each present when its
 *    source was attached.
 */
std::string runReportJson(Runtime &rt, const ReportInfo &info);

/** Write runReportJson() to @p path; false on I/O failure. */
bool writeRunReport(Runtime &rt, const ReportInfo &info,
                    const std::string &path);

/**
 * The execution profile as a JSON object string (`el_prof` renders it):
 * per-block execution counts with IA-32 disassembly and — when
 * Options::collect_block_cycles was set — the joined per-translation
 * IPF cycle/instruction costs, per-site conditional edge counters,
 * per-site indirect-target distributions, and the profiler's own health
 * counters. (Its time series lives in the metrics stream.)
 */
std::string profileJson(Runtime &rt, const prof::Profiler &prof,
                        const std::string &workload,
                        const buildinfo::ProducerStamp *producer =
                            nullptr);

/** Write profileJson() to @p path; false on I/O failure. */
bool writeProfile(Runtime &rt, const prof::Profiler &prof,
                  const std::string &workload, const std::string &path,
                  const buildinfo::ProducerStamp *producer = nullptr);

} // namespace el::core

#endif // EL_CORE_REPORT_HH
