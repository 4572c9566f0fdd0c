/**
 * @file
 * Differential run attribution: where did the cycles between two runs
 * go?
 *
 * `el_diff` (and bench_diff.py through it) feeds two el-report
 * documents of the *same guest image* — cold vs warm, a thread sweep,
 * before/after an optimization — through this engine. The engine
 * aligns the runs at two granularities:
 *
 *  - **phases**: the Figure-6 attribution categories (cold_code,
 *    hot_code, btgeneric, fault_handling, native, idle). Each report's
 *    categories sum to its total cycle count exactly, so the phase
 *    deltas sum to the total delta exactly; any discrepancy is
 *    reported as `phase_residual`, never hidden.
 *
 *  - **blocks**: per-translation cycle rows (present when the runs
 *    were collected with block tracking), aligned by canonical
 *    (entry EIP, kind). Block rows only cover *executed translation*
 *    cycles — synthetic charges (translation overhead, native, idle)
 *    have no block — so the block view carries its own explicit
 *    residual, plus a noise threshold that pools blocks whose |delta|
 *    is below a fraction of the total delta into one "below noise"
 *    row instead of listing thousands of ±1-cycle rows.
 *
 * Comparing incomparable runs is the classic way to lie with numbers,
 * so compatibility is checked first: same document version, same image
 * fingerprint (when both runs recorded one), same workload. Mismatches
 * are refused with the differing values named; `Options::force`
 * downgrades the refusal for deliberate cross-image comparisons.
 */

#ifndef EL_SUPPORT_ATTRIB_HH
#define EL_SUPPORT_ATTRIB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/buildinfo.hh"
#include "support/json.hh"

namespace el::attrib
{

/** The slice of one el-report document the differ consumes. */
struct RunView
{
    std::string path;        //!< Where it was loaded from (messages).
    std::string workload;
    std::string tool;        //!< producer.tool ("" when unstamped).
    std::string build;       //!< producer.build.
    std::string fingerprint; //!< producer.fingerprint ("" if absent).
    int version = 0;         //!< document version.
    double cycles = 0;
    //! Figure-6 categories in report order (name, cycles).
    std::vector<std::pair<std::string, double>> phases;
    double attribution_total = 0;

    struct BlockRow
    {
        uint32_t eip = 0;
        std::string kind; //!< "hot", "cold" or "runtime".
        double cycles = 0;
        double insns = 0;
    };
    bool has_blocks = false;
    std::vector<BlockRow> blocks; //!< Pre-merged by (eip, kind).
};

/**
 * Parse @p text (an el-report JSON document) into a RunView.
 * Returns false with @p err set when the document is not a
 * well-formed el-report (wrong kind, missing attribution, bad JSON).
 */
bool parseReport(const std::string &text, const std::string &path,
                 RunView *out, std::string *err);

/**
 * Are two runs comparable? Checks document version, image fingerprint
 * and workload. False fills @p why with the first mismatch, naming
 * both values.
 */
bool compatible(const RunView &base, const RunView &cur,
                std::string *why);

struct Options
{
    //! Blocks whose |delta| is below this fraction of |total delta|
    //! are pooled into the below-noise row.
    double noise_frac = 0.01;
};

struct PhaseDelta
{
    std::string phase;
    double base = 0;
    double cur = 0;
    double delta = 0;
    double share = 0; //!< delta / total delta (0 when total is 0).
};

struct BlockDelta
{
    uint32_t eip = 0;
    std::string kind;
    double base = 0;
    double cur = 0;
    double delta = 0;
};

/** The attribution of one pair of runs. */
struct Diff
{
    double base_cycles = 0;
    double cur_cycles = 0;
    double delta = 0; //!< cur - base.

    //! Phase rows, sorted by |delta| descending. Sum of deltas plus
    //! phase_residual equals `delta` exactly.
    std::vector<PhaseDelta> phases;
    double phase_residual = 0;
    //! Fraction of |delta| explained by named phases: 1 - |residual| /
    //! |delta| (1 when delta is 0).
    double attributed_fraction = 1.0;

    bool blocks_available = false;
    double noise_threshold = 0; //!< Absolute cycles.
    //! Above-noise block rows, sorted by |delta| descending.
    std::vector<BlockDelta> blocks;
    double below_noise = 0;     //!< Signed sum of pooled block deltas.
    uint64_t below_noise_rows = 0;
    //! delta minus every block delta (incl. pooled): the cycles that
    //! moved outside tracked blocks — synthetic translation overhead,
    //! native and idle charges.
    double block_residual = 0;
};

/** Compute the attribution. Callers check compatible() first. */
Diff diffRuns(const RunView &base, const RunView &cur,
              const Options &opts);

/** Serialize as an el-diff v1 JSON document (trailing newline). */
std::string diffJson(const Diff &d, const RunView &base,
                     const RunView &cur,
                     const buildinfo::ProducerStamp &producer);

/** Render the human-readable attribution table. */
std::string diffTable(const Diff &d, const RunView &base,
                      const RunView &cur);

} // namespace el::attrib

#endif // EL_SUPPORT_ATTRIB_HH
