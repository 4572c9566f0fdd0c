/**
 * @file
 * In-run guest checkpoint/resume.
 *
 * Periodically (on the simulated clock) the runtime captures the
 * complete guest-visible execution state — architectural registers,
 * the dirty subset of guest memory, and the simulated OS state
 * (console, heap, clock) — into a single durable file beside the
 * artifact store. A killed run relaunched with `el_run --resume`
 * restores the capture through the normal init path and finishes
 * bit-exactly: same final state hash, same console hash, same exit.
 *
 * What is deliberately NOT persisted (the "never mid-flight" set):
 *  - the translator runtime area (lookup tables, profile counters,
 *    speculation status bytes) — rebuilt by Runtime's constructor;
 *  - the code cache and block maps — re-translated, or re-adopted
 *    from the artifact store;
 *  - in-flight hot pipeline sessions — simply lost, re-registered
 *    when the block gets hot again;
 *  - sentinel / provenance / flight-recorder state — observers re-arm
 *    from scratch on the resumed runtime.
 * Captures happen only at the adoption boundary of the dispatch loop,
 * where no sentinel region is open and no block is mid-execution, so
 * the capture is always at a clean architectural instant and costs
 * zero simulated cycles.
 */

#ifndef EL_CORE_CHECKPOINT_HH
#define EL_CORE_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "btlib/os_sim.hh"
#include "ia32/state.hh"
#include "mem/memory.hh"
#include "persist/store.hh"
#include "support/stats.hh"

namespace el::core
{

class Runtime;

/** One captured guest memory page. */
struct PageImage
{
    uint64_t addr = 0;
    mem::Perm perm = mem::PermNone;
    bool has_code = false;
    /** Page bytes; empty = the page was clean at capture (its content
     *  is re-derived by reloading the guest image on resume). */
    std::vector<uint8_t> data;
};

/** A complete restorable capture. */
struct CheckpointImage
{
    uint64_t seq = 0;       //!< Capture ordinal within the run.
    double cycles = 0;      //!< Simulated clock at capture.
    uint64_t console_hash = 0; //!< FNV of the console at capture.
    ia32::State state;
    btlib::OsSnapshot os;
    std::vector<PageImage> pages;
};

/** Checkpointer configuration. */
struct CheckpointConfig
{
    std::string dir;
    uint64_t period_cycles = 0; //!< Simulated cycles between captures;
                                //!< 0 = never capture (load-only use).
    persist::Fingerprint fp;    //!< Same gate as the artifact store.
};

/**
 * Drives periodic captures from the runtime's adoption boundary and
 * loads them back for `--resume`. The checkpoint file is a single
 * rolling `<fp>.elckpt` in the artifact store's container format (a
 * header plus one Checkpoint frame), atomically replaced on every
 * capture, so a crash mid-write leaves the previous capture intact.
 */
class Checkpointer
{
  public:
    explicit Checkpointer(CheckpointConfig cfg) : cfg_(std::move(cfg)) {}

    /** Where the OS snapshot comes from (the harness wires the live
     *  personality in; the Runtime cannot see it through BTOS). */
    void
    setOsSource(std::function<btlib::OsSnapshot()> source)
    {
        os_source_ = std::move(source);
    }

    /** Capture when the period elapsed; called at adoption boundaries
     *  (never with a sentinel region open). Zero simulated cycles. */
    void maybeCheckpoint(Runtime &rt, uint32_t next_eip);

    /** Unconditional capture + durable publish. */
    bool checkpointNow(Runtime &rt, uint32_t next_eip);

    /** The checkpoint file path for this configuration. */
    std::string path() const;

    uint64_t captures() const { return seq_; }

    /**
     * Load the checkpoint for @p fp from @p dir. False (with *error
     * set) when absent, torn, corrupt, or fingerprint-mismatched —
     * callers then start cold; a bad checkpoint never aborts a run.
     */
    static bool load(const std::string &dir,
                     const persist::Fingerprint &fp, CheckpointImage *out,
                     std::string *error);

    /** ckpt.* counters (written, bytes, failed). */
    StatGroup stats;

  private:
    CheckpointConfig cfg_;
    std::function<btlib::OsSnapshot()> os_source_;
    uint64_t seq_ = 0;
    double next_due_ = 0;
};

/**
 * Apply a checkpoint's memory to @p memory, which must hold a freshly
 * loaded guest image with clearDirty() already called: dirty pages are
 * overwritten from the capture, clean pages keep their image-loaded
 * bytes, and pages the image did not map are created.
 */
void applyCheckpointMemory(const CheckpointImage &image,
                           mem::Memory &memory);

} // namespace el::core

#endif // EL_CORE_CHECKPOINT_HH
