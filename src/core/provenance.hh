/**
 * @file
 * Artifact provenance ledger: per-entry-point lifecycle timelines.
 *
 * Every translation artifact the runtime ever produces for a guest
 * entry point leaves a compact trail here: decoded → cold → hot-queued
 * → session → published/discarded → persisted → adopted →
 * quarantined → retranslated, each step stamped with the simulated
 * cycle, the code-cache generation, the block id, and a cause code
 * (why did the artifact leave its previous state — heat, an SMC write,
 * cache pressure, a sentinel conviction, ...). When a run ends badly,
 * the ledger answers the first forensic question — "where did the code
 * I was executing come from, and what happened to its ancestors?" —
 * without re-running under a tracer.
 *
 * The ledger is fed only by the runtime: a hot session's outcome is
 * recorded at adoption time using the session's planned simulated
 * times, mirroring how the tracer handles session lanes, so timelines
 * are deterministic across translation_threads.
 * Per-eip history is a bounded drop-oldest ring (churning blocks keep
 * their recent lifecycle, not their full history). Recording charges
 * zero simulated cycles.
 */

#ifndef EL_CORE_PROVENANCE_HH
#define EL_CORE_PROVENANCE_HH

#include <cstdint>
#include <map>

#include "support/ring.hh"

namespace el::core
{

/** Lifecycle states an artifact moves through. */
enum class ProvState : uint8_t
{
    Decoded,      //!< Guest bytes decoded at this entry point.
    Cold,         //!< Cold translation published.
    HotQueued,    //!< Registered hot and queued for a session.
    Session,      //!< Hot-translation session ran.
    Published,    //!< Hot artifact committed into the code cache.
    Discarded,    //!< Artifact rejected/killed (see cause).
    Persisted,    //!< Recorded into the on-disk artifact store.
    Adopted,      //!< Stored artifact adopted instead of retranslating.
    Quarantined,  //!< Sentinel conviction: artifact blacklisted.
    Retranslated, //!< Cooldown expired; eligible to translate again.
    Pinned,       //!< Retry budget exhausted; interpreter-only forever.
};

/** Why the state changed. */
enum class ProvCause : uint8_t
{
    None,
    Heat,               //!< Use counter crossed the heat threshold.
    SessionOk,          //!< Hot session completed successfully.
    SessionAbort,       //!< Hot session failed (incl. injected aborts).
    StaleGeneration,    //!< Cache generation moved under the artifact.
    SmcWrite,           //!< Self-modifying store hit covered bytes.
    CacheFlush,         //!< Bounded-cache flush reclaimed it.
    CachePressure,      //!< Publication refused: cache over capacity.
    QuarantineBlocked,  //!< Commit refused: entry is quarantined.
    SentinelDivergence, //!< Shadow execution disagreed.
    // The numbers reach event payload words (hot_discard and
    // persist_reject word b), so they are fixed: 10 and 11 are unused.
    StoreRecord = 12,   //!< Captured into the persistent store.
    StoreHit,           //!< Matching record found in the store.
    SmcMismatch,        //!< Store record's guard bytes ≠ live memory.
    QuarantinePurge,    //!< Quarantine scrubbed the store record.
    Cooldown,           //!< Quarantine cooldown expired.
    Misalign,           //!< Regenerated for misalignment avoidance.
};

const char *provStateName(ProvState s);
const char *provCauseName(ProvCause c);

/** One lifecycle step. */
struct ProvEvent
{
    ProvState state = ProvState::Decoded;
    ProvCause cause = ProvCause::None;
    int32_t block_id = -1;    //!< BlockInfo id, -1 when not applicable.
    uint32_t generation = 0;  //!< Code-cache generation at the event.
    double ts = 0;            //!< Simulated cycles.
};

/** Lifecycle events the runtime's ledger keeps per guest entry point. */
constexpr size_t prov_events_per_eip = 32;

/** The ledger. Owned by the runtime. */
class ProvenanceLedger
{
  public:
    /** @p per_eip_capacity Last-N lifecycle events kept per eip. */
    explicit ProvenanceLedger(size_t per_eip_capacity = prov_events_per_eip)
        : per_eip_capacity_(per_eip_capacity ? per_eip_capacity : 1)
    {}

    ProvenanceLedger(const ProvenanceLedger &) = delete;
    ProvenanceLedger &operator=(const ProvenanceLedger &) = delete;

    /** Append one step to @p eip's timeline. */
    void
    note(uint32_t eip, ProvState state, ProvCause cause, int32_t block_id,
         uint32_t generation, double ts)
    {
        auto it = timelines_.find(eip);
        if (it == timelines_.end())
            it = timelines_
                     .emplace(eip, BoundedRing<ProvEvent>(
                                       per_eip_capacity_,
                                       RingPolicy::DropOldest))
                     .first;
        it->second.push(ProvEvent{state, cause, block_id, generation, ts});
    }

    /** @p eip's timeline, oldest first; null when never seen. */
    const BoundedRing<ProvEvent> *
    timeline(uint32_t eip) const
    {
        auto it = timelines_.find(eip);
        return it == timelines_.end() ? nullptr : &it->second;
    }

    /** All timelines, keyed and iterated by eip (deterministic). */
    const std::map<uint32_t, BoundedRing<ProvEvent>> &
    all() const
    {
        return timelines_;
    }

  private:
    size_t per_eip_capacity_;
    std::map<uint32_t, BoundedRing<ProvEvent>> timelines_;
};

} // namespace el::core

#endif // EL_CORE_PROVENANCE_HH
