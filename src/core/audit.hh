/**
 * @file
 * The runtime accounting auditor: cross-checks every telemetry view of
 * a run against every other.
 *
 * Each observability layer added so far — bucketed cycle accounting,
 * per-block costs, StatGroup counters, the flight recorder, the
 * provenance ledger, the serialized report and metrics schemas —
 * measures the same execution independently. The auditor exploits
 * that redundancy: when the books do not close, some counter was
 * dropped, double-charged, or silently bypassed, and every bench delta
 * and el_diff attribution downstream is built on sand.
 *
 * Two entry points with different safety envelopes:
 *
 *  - `auditClosure()` reads only the machine (main-thread state) and
 *    is safe at any dispatch/adoption boundary — this is what
 *    `el_run --audit` runs periodically during execution.
 *
 *  - `auditRun()` additionally walks the flight recorder, the
 *    provenance ledger and the serialized schemas. A session still in
 *    flight has not had its worker-lane events recorded, so this pass
 *    belongs after `Runtime::quiesce()` — el_run runs it once at end
 *    of run.
 *
 * The invariant table is documented in DESIGN.md §14.
 */

#ifndef EL_CORE_AUDIT_HH
#define EL_CORE_AUDIT_HH

#include <string>

#include "support/audit.hh"
#include "support/buildinfo.hh"

namespace el::core
{

class Runtime;

/**
 * Machine-level closure checks (safe mid-run at dispatch boundaries):
 *
 *  - Σ per-block cycles + synthetic cycles == total cycles (when
 *    block tracking is on) — catches any cycle added outside the
 *    charging paths;
 *  - Σ per-bucket retired instructions == total retired;
 *  - Σ per-block instructions == total retired (block tracking on);
 *  - per-bucket misalignment-penalty cycles ≤ that bucket's cycles;
 *  - guard-recovery overhead ≤ the Overhead bucket;
 *  - every Figure-6 attribution category is non-negative and the
 *    categories sum to the machine total.
 */
audit::Result auditClosure(Runtime &rt);

/** What the full audit needs beyond the runtime itself. */
struct AuditContext
{
    std::string workload; //!< For the schema self-check render.
    //! Stamp used when rendering schema self-check documents; null
    //! renders them unstamped (the producer checks are then skipped).
    const buildinfo::ProducerStamp *producer = nullptr;
};

/**
 * The full audit: closure checks plus flight↔counter cross-counts,
 * provenance state-machine legality, and report and metrics schema
 * self-checks. Call only after Runtime::quiesce(), which records
 * the worker-lane events of sessions not yet adopted.
 */
audit::Result auditRun(Runtime &rt, const AuditContext &ctx);

} // namespace el::core

#endif // EL_CORE_AUDIT_HH
