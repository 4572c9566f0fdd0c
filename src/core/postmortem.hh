/**
 * @file
 * Postmortem bundles: one self-contained JSON document explaining an
 * abnormal exit.
 *
 * When a run ends badly — a guest fault terminates the workload, the
 * divergence sentinel convicts a translation, an injected abort
 * surfaces, or the embedder simply asks for one — the bundle captures
 * everything the black box and the provenance ledger know, plus the
 * sentinel health ledger, the merged counter set, and the active
 * fault-injection configuration. It is written from whatever state the
 * runtime is in (including an InitError runtime whose machine and
 * translator were never built), so the dump path itself cannot fail
 * for the same reason the run did.
 */

#ifndef EL_CORE_POSTMORTEM_HH
#define EL_CORE_POSTMORTEM_HH

#include <cstdint>
#include <string>

#include "support/buildinfo.hh"

namespace el::core
{

class Runtime;

/** What the embedder knows about how the run ended. */
struct PostmortemInfo
{
    std::string workload;   //!< Workload name (image path).
    std::string exit_class; //!< "ok", "guest_fault", "divergence",
                            //!< "internal", "requested", ...
    int exit_code = 0;      //!< Process exit code being reported.
    bool resumed = false;   //!< Run was restored from a checkpoint.
    uint64_t checkpoint_seq = 0; //!< Capture ordinal resumed from.
    //! Build/schema stamp for the bundle; unset leaves it unstamped.
    const buildinfo::ProducerStamp *producer = nullptr;
};

/**
 * The bundle as a JSON object string (schema "el-postmortem" v1):
 * the exit classification, the merged last-N flight events, the
 * provenance timeline of every entry point (flagging the ones whose
 * hot translation was live at the end), the sentinel health ledger
 * and divergence log, the merged stats namespace, and the fault
 * injector's seed + per-site fire counts.
 */
std::string postmortemJson(Runtime &rt, const PostmortemInfo &info);

/** Write postmortemJson() to @p path; false on I/O failure. */
bool writePostmortem(Runtime &rt, const PostmortemInfo &info,
                     const std::string &path);

} // namespace el::core

#endif // EL_CORE_POSTMORTEM_HH
