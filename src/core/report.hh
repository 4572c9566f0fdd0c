/**
 * @file
 * Machine-readable run reports: cycle attribution in the paper's
 * Figure 6 categories, per-block cycle rows, and the full counter set,
 * serialized as JSON.
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
 * scalars: a warm-start run must reproduce these bit-for-bit against a
 * cold run, and CI diffs them across cache states. Hashes are rendered
 * as hex strings in the JSON (64-bit values do not survive a round
 * trip through JSON doubles).
 */
struct GuestResult
{
    bool exited = false;
    int32_t exit_code = 0;
    uint64_t state_hash = 0;   //!< Hash of the final ia32::State.
    uint64_t console_hash = 0; //!< Hash of the guest console output.
    uint64_t guest_insns = 0;
};

/** Reduce a final guest state + console to a GuestResult. */
GuestResult guestResultOf(const ia32::State &state,
                          const std::string &console, bool exited,
                          int32_t exit_code, uint64_t guest_insns);

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

/**
 * The full run report as a JSON object string: workload name, totals,
 * the attribution, every translator/runtime counter, and — when
 * Options::collect_block_cycles was set — one row per translation
 * block with its simulated cycles and retired instructions.
 */
std::string runReportJson(Runtime &rt, const std::string &workload,
                          const GuestResult *guest = nullptr,
                          const buildinfo::ProducerStamp *producer =
                              nullptr);

/** Write runReportJson() to @p path; false on I/O failure. */
bool writeRunReport(Runtime &rt, const std::string &workload,
                    const std::string &path,
                    const GuestResult *guest = nullptr,
                    const buildinfo::ProducerStamp *producer = nullptr);

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
