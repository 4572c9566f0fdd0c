/**
 * @file
 * The translation-lifecycle event stream.
 *
 * Every step BTGeneric takes in a translation's life — a dispatch, a
 * cold translation, a heat registration, a hot session and its commit
 * or discard, an SMC invalidation, a cache flush, an injected or guest
 * fault — is one fixed-width Event: a Kind, a logical lane, a
 * simulated-cycle timestamp and span length, and four int64 payload
 * words. No strings are stored; a constant per-kind table (kindInfo())
 * says what each artifact calls the kind and which words it exports.
 *
 * Two views record the same stream, each a Tracer over one bounded
 * ring that stores only the kinds the view exports:
 *  - View::Chrome is the opt-in lifecycle capture (Options::trace). Its
 *    ring drops the *newest* event on overflow, so the front of the run
 *    stays a faithful prefix, and chromeJson() exports Chrome
 *    trace-event JSON for chrome://tracing or https://ui.perfetto.dev.
 *  - View::BlackBox is the always-on flight recorder the runtime owns
 *    (Options::flight_recorder). Its ring drops the *oldest* event, so
 *    the tail that explains an abnormal exit survives; the run
 *    report's `flight` section exports it.
 *
 * Lanes and timestamps come from the simulation, never from wall clock:
 * lane 0 is the guest/runtime, lane 1+k is simulated hot-pipeline
 * worker k, and a hot session's events carry its *planned* simulated
 * times on the lane the plan chose (lane 0 when there are no workers
 * and the guest runs the session itself). The runtime records a
 * session's events when it takes the session's artifact, in enqueue
 * order. A deterministic run therefore records a bit-identical stream.
 * Recording charges zero simulated cycles, so cycle results are
 * bit-identical with either view attached or not.
 */

#ifndef EL_SUPPORT_TRACE_HH
#define EL_SUPPORT_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/ring.hh"

namespace el::trace
{

/** Event category (Chrome "cat" field; filterable in the viewer). */
enum class Cat : uint8_t
{
    Translate, //!< Cold translation.
    Hot,       //!< Hot-phase lifecycle (register/snapshot/emit/commit).
    Cache,     //!< Code-cache flush/GC, SMC, link/unlink.
    Fault,     //!< Fault handling + fault injection.
    Runtime,   //!< Everything else in BTGeneric.
};

const char *catName(Cat cat);

/**
 * What happened. A kind is the *shape* of one recording site, not an
 * exported name: two sites that share a name but export different
 * words (a fault fired by the runtime and a hot session's injected
 * abort) are separate kinds. Payloads are words a/b/c/d; a guest entry
 * point always goes in a.
 *
 * The black-box kinds come first, in their historical order: the black
 * box breaks timestamp ties by kind.
 */
enum class Kind : uint8_t
{
    Dispatch,      //!< Block-map lookup (a=eip, b=lookup #).
    ColdXlate,     //!< Cold block translated (a=eip, b=block, c=insns).
    HotEnqueue,    //!< Candidate queued to the pipeline (a=eip, b=seq,
                   //!< d=block).
    WorkerSession, //!< Hot session ran over its planned ts..ts+dur on
                   //!< its lane (a=eip, b=seq, c=ok, d=worker slot,
                   //!< -1 = the guest).
    HotCommit,     //!< Hot artifact published (a=eip, b=block, c=insns).
    HotDiscard,    //!< Hot artifact rejected at commit (a=eip, b=cause).
    SmcInvalidate, //!< Self-modifying write killed blocks (a=addr,
                   //!< b=len, c=count).
    CacheFlush,    //!< Code cache flushed (a=generation).
    PersistAdopt,  //!< Stored artifact adopted (a=eip, b=insns,
                   //!< d=block).
    PersistReject, //!< Stored artifact rejected (a=eip, b=cause).
    SentinelShift, //!< Health transition (a=eip, b=from, c=to).
    Divergence,    //!< Shadow-execution mismatch (a=checkpoint eip,
                   //!< b=boundary eip).
    FaultInject,   //!< Injected fault fired on the guest lane (a=site,
                   //!< b=fire #).
    WorkerFault,   //!< Injected abort on a session's lane (a=site,
                   //!< b=seq).
    GuestFault,    //!< Guest fault delivered (a=eip, b=fault kind).

    // Chrome-only kinds.
    HeatRegister,   //!< Use counter fired (a=eip, b=block,
                    //!< c=registrations).
    HotPublish,     //!< Session artifact published (a=eip, b=block,
                    //!< c=seq, d=worker slot, -1 = the guest).
    AdoptionStall,  //!< A worker's artifact waited for a boundary
                    //!< (a=seq, b=cycles).
    ExitUnlink,     //!< Block exits unlinked (a=eip, b=block).
    ExitRelink,     //!< Exit patched to its target (a=target eip,
                    //!< b=from block).
    Quarantine,     //!< Translation blacklisted (a=eip, b=block).
    GuardRecover,   //!< Speculation guard repaired (a=block, b=guard).

    /** A provenance step no view keeps (a=eip): the ledger is its only
     *  sink. */
    Provenance,

    NumKinds
};

/** One Chrome argument: its key and the payload word it exports. */
struct Arg
{
    const char *key = nullptr; //!< Null ends the list.
    uint8_t word = 0;          //!< 0..3 = a..d.
};

constexpr unsigned max_args = 4;

/** How each view exports a kind. */
struct KindInfo
{
    const char *box = nullptr;    //!< Black-box name; null = not kept.
    const char *chrome = nullptr; //!< Chrome name; null = not traced.
    Cat cat = Cat::Runtime;
    char ph = 'i';                //!< 'X' complete span, 'i' instant.
    bool box_at_end = false;      //!< Black box stamps a worker-lane
                                  //!< event at ts + dur, when the
                                  //!< guest learns of it.
    Arg args[max_args];           //!< Chrome args, in export order.
};

const KindInfo &kindInfo(Kind kind);

/** One recorded event; see Kind for payload meanings. */
struct Event
{
    Kind kind = Kind::Dispatch;
    uint32_t lane = 0; //!< 0 = the guest, 1+k = worker slot k.
    double ts = 0;     //!< Simulated cycles (planned for sessions).
    double dur = 0;    //!< Span length in simulated cycles.
    int64_t a = 0;
    int64_t b = 0;
    int64_t c = 0;
    int64_t d = 0;

    /** Payload word @p i (0..3 = a..d). */
    int64_t
    word(unsigned i) const
    {
        return i == 0 ? a : i == 1 ? b : i == 2 ? c : d;
    }
};

/** Which artifact a Tracer feeds; see the file comment. */
enum class View : uint8_t
{
    Chrome,   //!< Drop-newest prefix, exported as Chrome JSON.
    BlackBox, //!< Drop-oldest tail, exported in the run report.
};

/** The recorder: one instance per view per run. Only the runtime
 *  records into it. */
class Tracer
{
  public:
    /** @p ring_capacity Ring size in events. */
    explicit Tracer(size_t ring_capacity = 1 << 16,
                    View view = View::Chrome)
        : view_(view),
          events_(ring_capacity, view == View::Chrome
                                     ? RingPolicy::DropNewest
                                     : RingPolicy::DropOldest)
    {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Record @p e if this view exports its kind (the black box
     *  re-stamps box_at_end kinds on worker lanes first). */
    void record(const Event &e);

    /**
     * The ring's events in a deterministic order for a deterministic
     * event set: (ts, lane, Chrome name, first arg) for the Chrome
     * view, (ts, lane, kind, a) for the black box.
     */
    std::vector<Event> snapshot() const;

    /** Events lost to ring overflow. */
    uint64_t dropped() const { return events_.dropped(); }

    size_t ringCapacity() const { return events_.capacity(); }

    /** Chrome trace-event JSON (the {"traceEvents": [...]} form). */
    std::string chromeJson() const;

    /** Write chromeJson() to @p path; false on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

  private:
    View view_;
    BoundedRing<Event> events_;
};

/**
 * Validate a Chrome trace-event JSON file: well-formed JSON, a
 * "traceEvents" array whose entries carry name/ph/ts/tid, and
 * non-decreasing timestamps within each tid. Returns true when valid;
 * otherwise fills @p error. Used by `el_run --validate-trace` and CI.
 */
bool validateChromeTrace(const std::string &json_text, std::string *error);

} // namespace el::trace

#endif // EL_SUPPORT_TRACE_HH
