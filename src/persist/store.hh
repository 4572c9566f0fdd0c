/**
 * @file
 * The persistent translation-artifact store.
 *
 * Hot traces are the expensive half of the two-phase translator (~20x
 * cold translation per instruction), and nothing about them depends on
 * the run that produced them: a published artifact is a pure function
 * of the guest image bytes and the emission-relevant Options. This
 * store serializes published hot artifacts — staging code, recovery
 * maps, guard expectations, and SMC-guard windows — keyed by a
 * guest-image fingerprint (image checksum + entry + translator/options
 * version), into one file in the versioned, CRC-framed container of
 * persist/durable.hh, so a second run of the same image starts warm
 * (`el_run --cache-dir=<d>`) and `el_aot` can pre-translate and seal a
 * whole image offline.
 *
 * The file is a log. Compaction rewrites it durably as a header plus
 * one Add frame per live record; during a run, record() and dropAt()
 * append Add and Drop frames behind those, made durable at adoption
 * boundaries, so a kill -9 loses at most the artifacts since the last
 * boundary. Loading replays every frame in file order: Add replaces a
 * record by (entry EIP, spec), Drop erases the EIP.
 *
 * Safety model:
 *  - The fingerprint gates the whole file: a changed image, entry
 *    point, emission toggle, or format version simply misses.
 *  - Every frame carries its own magic + CRC; a corrupt or truncated
 *    frame is dropped (counted, never crashes, never loads silently
 *    wrong code) and execution falls back to cold translation.
 *  - Decoded records are semantically validated (enum ranges, cache
 *    bounds, stub indices) before they become visible.
 *  - Loaded artifacts re-enter through the translator's normal commit
 *    path, so generation checks, sentinel quarantine, and the baked
 *    SMC guards apply to them exactly as to freshly translated code;
 *    additionally each record's SMC-guard windows are re-validated
 *    against live guest memory at adoption time, so a guest that
 *    patched its code never resurrects a stale trace.
 *
 * A hot session never sees the store: recording happens at the
 * commit point, where the runtime adopts the session's artifact.
 */

#ifndef EL_PERSIST_STORE_HH
#define EL_PERSIST_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/blockinfo.hh"
#include "ipf/insn.hh"
#include "persist/durable.hh"
#include "support/stats.hh"

namespace el::guest
{
struct Image;
} // namespace el::guest

namespace el::core
{
struct Options;
} // namespace el::core

namespace el::persist
{

/**
 * Fingerprint of (image, options). Only emission-relevant options are
 * hashed — feature toggles and code-shape limits that change what a
 * hot session emits. Thresholds, thread counts, simulated costs, and
 * capacities affect *when* artifacts are built, never their contents,
 * so an `el_aot`-built store (aggressive thresholds) is valid for a
 * default `el_run`.
 */
Fingerprint fingerprintOf(const guest::Image &image,
                          const core::Options &options);

/**
 * One persisted hot artifact: everything the translator's commit path
 * needs to republish the trace into a fresh runtime. The proto
 * BlockInfo and the stub indices are staging-relative, exactly as a
 * worker session hands them over.
 */
struct HotRecord
{
    uint32_t entry_eip = 0;
    core::SpecContext spec;         //!< Entry conditions.
    core::BlockInfo proto;          //!< Staging-relative metadata.
    std::vector<ipf::Instr> code;   //!< Staged instructions [0, n).
    std::vector<uint32_t> covered_eips;
    /** (guest address, expected bytes) per constituent block on a
     *  writable page; re-checked against live memory at adoption. */
    std::vector<std::pair<uint32_t, uint64_t>> smc_guards;
};

/** The in-memory store: records keyed by entry EIP, plus file I/O. */
class ArtifactStore
{
  public:
    ArtifactStore() = default;
    explicit ArtifactStore(const Fingerprint &fp) : fp_(fp) {}

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    ~ArtifactStore() { closeLog(); }

    /** Set the identity (drops all records and counters' context). */
    void
    resetFingerprint(const Fingerprint &fp)
    {
        closeLog();
        fp_ = fp;
        records_.clear();
        missed_.clear();
        sealed_ = false;
        clean_path_.clear();
    }

    const Fingerprint &fingerprint() const { return fp_; }

    // ----- write side (translator commit path) ----------------------

    /**
     * Insert @p rec, replacing any existing record with the same
     * (entry_eip, spec), and append it to the open log. No-op on a
     * sealed store (an `el_aot`-sealed store is validated content;
     * runs must not dilute it).
     */
    void record(HotRecord rec);

    /**
     * Drop every record at @p eip. Called when the sentinel
     * quarantines a hot block: convicted code must never be shipped,
     * so it leaves the store (and the open log records the drop).
     */
    void dropAt(uint32_t eip);

    // ----- read side (dispatch-time adoption) -----------------------

    /** Any live record at @p eip? (The cheap pre-probe.) */
    bool
    hasRecordsAt(uint32_t eip) const
    {
        auto it = records_.find(eip);
        return it != records_.end() && !it->second.empty();
    }

    /** All live records at @p eip (pointers valid until mutation). */
    std::vector<const HotRecord *> recordsAt(uint32_t eip) const;

    /** Count a probe that found nothing usable (once per distinct
     *  EIP, so the counter reads as "blocks we could not warm-start"
     *  rather than "dispatches"). */
    void
    noteMiss(uint32_t eip)
    {
        if (missed_.insert(eip).second)
            stats.add("persist.misses");
    }

    // ----- lifecycle ------------------------------------------------

    size_t recordCount() const;

    /** Mark as validated/complete (`el_aot`); freezes record(). */
    void seal() { sealed_ = true; }
    bool sealed() const { return sealed_; }

    /** The store file path for this fingerprint inside @p dir. */
    std::string pathIn(const std::string &dir) const;

    /**
     * Load the store file for this fingerprint from @p dir, replaying
     * its frames in order. Returns true when at least one frame
     * applied. Missing, truncated, corrupt, or version-mismatched
     * files are tolerated: bad frames are dropped (counted in
     * persist.rejected_*) and a bad header rejects the file — the run
     * then simply starts cold.
     */
    bool load(const std::string &dir);

    /** load() against an explicit file path. */
    bool loadFile(const std::string &path);

    /**
     * Durably write the store file in @p dir (created if needed) as a
     * header plus one Add frame per live record: temp + fsync +
     * rename, so a kill leaves either the old file or the new one.
     */
    bool save(const std::string &dir);

    // ----- crash consistency: the appended tail ---------------------

    /**
     * Start appending this run's record()/dropAt() mutations to the
     * store file in @p dir; call after load(). A missing file is
     * created as a bare header through the append path; a file whose
     * last load() or save() ended cleanly is appended to as it is;
     * anything else (a torn tail, a bad frame, a rejected header) is
     * first compacted, so no frame lands behind damage. Mutations
     * are framed into a pending buffer; flushLog() makes them durable.
     * No-op (false) on a sealed store: sealed stores are immutable
     * validated content and are never appended to.
     */
    bool openLog(const std::string &dir);

    /** Append + fsync every pending frame; true when durable (or when
     *  nothing was pending / no log is open). */
    bool flushLog();

    /** Flush pending frames and close the log. */
    void closeLog();

    bool logOpen() const { return log_fd_ >= 0; }

    /** Frames recorded since the last flush (cheap dirtiness probe
     *  for the runtime's adoption-boundary hook). */
    bool logDirty() const { return !log_pending_.buf.empty(); }

    /**
     * save(), counted as a compaction, that keeps an open log working:
     * the log is closed first (flushing its pending frames) and
     * reopened on the new file after, because the old descriptor
     * would point at the unlinked file and appends to it would
     * silently vanish.
     */
    bool compact(const std::string &dir);

    /**
     * persist.* counters: hits, misses, loaded_blocks, bytes_read,
     * bytes_written, records saved/loaded, the appended tail
     * (journal_frames/bytes/flushes/replayed), and the rejection
     * tallies of the hardened loader. Merged into the run report.
     */
    StatGroup stats;

  private:
    /** Insert-or-replace by (entry_eip, spec); true when replaced. */
    bool insert(HotRecord &&rec);

    /** Frame one mutation into the pending log buffer. */
    void logFrame(FrameKind kind, const std::vector<uint8_t> &payload);

    Fingerprint fp_;
    bool sealed_ = false;
    std::map<uint32_t, std::vector<std::unique_ptr<HotRecord>>> records_;
    std::set<uint32_t> missed_; //!< Distinct-EIP miss dedup.

    int log_fd_ = -1;          //!< POSIX fd; -1 = closed.
    wire::Writer log_pending_; //!< Frames since last flush.
    /** The file whose last load or write ended on a clean frame
     *  boundary, so appending to it is safe. */
    std::string clean_path_;
};

} // namespace el::persist

#endif // EL_PERSIST_STORE_HH
