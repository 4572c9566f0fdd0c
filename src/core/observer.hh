/**
 * @file
 * The one lifecycle hook.
 *
 * Each step the translator or the runtime takes in a translation's life
 * is a single Observer call, and that call reaches every sink the run
 * attached:
 *  - the caller's Chrome capture (Options::trace),
 *  - the runtime's always-on black box (Options::flight_recorder),
 *  - the provenance ledger, for the steps that move an artifact.
 * Each view keeps only the kinds it exports (support/trace.hh), so a new
 * lifecycle event is one Kind, one row in the kind table and one call.
 *
 * Every sink is optional, recording charges zero simulated cycles, and
 * only the runtime records: it stamps a hot session's lane events
 * itself, at their planned times. Session-lane events never carry
 * provenance steps.
 */

#ifndef EL_CORE_OBSERVER_HH
#define EL_CORE_OBSERVER_HH

#include <array>
#include <functional>
#include <initializer_list>

#include "core/provenance.hh"
#include "ipf/code_cache.hh"
#include "support/trace.hh"

namespace el::core
{

/** A ledger step an event folds in, for the guest eip in its word a. */
struct ProvStep
{
    ProvState state = ProvState::Decoded;
    ProvCause cause = ProvCause::None;
    int32_t block = -1;
};

/** A run's sinks plus its simulated clock; see the file comment. */
struct Observer
{
    trace::Tracer *chrome = nullptr;       //!< Null = tracing off.
    trace::Tracer *box = nullptr;          //!< Null = black box off.
    ProvenanceLedger *ledger = nullptr;    //!< Null = ledger off.
    const ipf::CodeCache *cache = nullptr; //!< Stamps ledger generations.
    std::function<double()> clock;         //!< Simulated now.

    bool attached() const { return chrome || box || ledger; }

    double now() const { return clock ? clock() : 0; }

    /** Record a stamped event (worker lanes carry planned times). */
    void
    record(const trace::Event &e,
           std::initializer_list<ProvStep> steps = {}) const
    {
        if (chrome)
            chrome->record(e);
        if (box)
            box->record(e);
        if (ledger)
            for (const ProvStep &s : steps)
                ledger->note(static_cast<uint32_t>(e.a), s.state, s.cause,
                             s.block, cache->generation(), e.ts);
    }

    /** Record a guest-lane event at now(); @p words are a, b, c, d. */
    void
    recordNow(trace::Kind kind, std::array<int64_t, 4> words,
              double dur = 0,
              std::initializer_list<ProvStep> steps = {}) const
    {
        if (!attached())
            return;
        record({kind, 0, now(), dur, words[0], words[1], words[2],
                words[3]},
               steps);
    }
};

/** The observer of a translator no runtime attached: records nothing. */
inline const Observer detached_observer{};

} // namespace el::core

#endif // EL_CORE_OBSERVER_HH
