/*
 * Build provenance stamps.
 *
 * Every artifact the toolchain writes (run reports, profiles, metrics
 * NDJSON, bench reports) carries a `producer` header naming the tool
 * that wrote it, the build it came from, and — when the producer knows
 * it — the image/options fingerprint of the run. One stamp is shared
 * by all the documents of a run, so it carries no document version:
 * each document has its own top-level `version`. Readers (el_diff
 * above all) use the stamp to refuse cross-image comparisons with a
 * clear message instead of silently diffing incomparable numbers.
 */

#ifndef EL_SUPPORT_BUILDINFO_HH
#define EL_SUPPORT_BUILDINFO_HH

#include <string>

#include "support/json.hh"

namespace el::buildinfo {

/** Version string of this build ("git describe" output captured at
 *  configure time, or "unknown" outside a git checkout). */
const char *buildVersion();

/**
 * The provenance header stamped into emitted artifacts. `fingerprint`
 * is the persist-layer image+options fingerprint hex, empty when the
 * producer has no image (e.g. bench reports aggregate several runs).
 */
struct ProducerStamp
{
    std::string tool;        //!< e.g. "el_run", "el_aot", "bench"
    std::string build;       //!< buildVersion()
    std::string fingerprint; //!< image/options fingerprint hex or ""

    static ProducerStamp make(std::string tool_name,
                              std::string fingerprint_hex = "")
    {
        ProducerStamp s;
        s.tool = std::move(tool_name);
        s.build = buildVersion();
        s.fingerprint = std::move(fingerprint_hex);
        return s;
    }
};

/** Emit the stamp as a "producer" member of the current JSON object. */
inline void
writeStamp(json::Writer &w, const ProducerStamp &s)
{
    w.key("producer");
    w.beginObject();
    w.kv("tool", s.tool);
    w.kv("build", s.build);
    if (!s.fingerprint.empty())
        w.kv("fingerprint", s.fingerprint);
    w.endObject();
}

} // namespace el::buildinfo

#endif // EL_SUPPORT_BUILDINFO_HH
