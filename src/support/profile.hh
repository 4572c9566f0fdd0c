/**
 * @file
 * Online execution profiler: per-block execution counters, per-exit
 * edge counters and indirect-branch value profiles. (The run's one
 * periodic sampler is metrics::Registry; the runtime registers the
 * profiler's event count there as the `profile_events` gauge.)
 *
 * The profiler observes *guest architectural* events, not translation
 * events. The machine reports the probe instructions it visits —
 * predicated conditional exits, the predicated fast-lookup miss exit of
 * every indirect branch, and the block-terminating stop exits — and the
 * profiler replays the guest's control flow over a canonical basic-block
 * decomposition it decodes itself (via a resolver callback, so this
 * support-layer class stays free of ia32 dependencies). Because the
 * probe stream is a pure function of the retired guest instruction
 * sequence, every counter is bit-identical across translation-thread
 * counts, hot/cold phase boundaries, and adoption timing. DESIGN.md
 * ("Observability") documents the invariance argument.
 *
 * Nothing here touches the timing model: the machine's cycle counts are
 * identical with the profiler attached or not, and when it is not
 * attached the machine pays exactly one predictable branch per retired
 * instruction.
 */

#ifndef EL_SUPPORT_PROFILE_HH
#define EL_SUPPORT_PROFILE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "support/stats.hh"

namespace el::prof
{

/** Canonical classification of one guest instruction. */
enum class InsnKind : uint8_t
{
    Plain,      //!< Falls through to the next instruction.
    Cond,       //!< Conditional branch (Jcc).
    Jump,       //!< Unconditional direct jump.
    CallDirect, //!< Direct call (transfers to the target).
    Indirect,   //!< Indirect jump/call or return.
    Stop,       //!< Syscall, breakpoint, halt, or undecodable.
};

/** Resolver result for one guest instruction. */
struct InsnInfo
{
    InsnKind kind = InsnKind::Stop;
    uint32_t next = 0;   //!< Address of the following instruction.
    uint32_t target = 0; //!< Branch target (Cond/Jump/CallDirect).
};

/**
 * Decodes the guest instruction at @p ip. Installed by the runtime
 * (wrapping the ia32 decoder over guest memory). Implementations map
 * undecodable or unmapped bytes to InsnKind::Stop — that *is* the
 * canonical fact (execution there raises a guest fault).
 */
using InsnResolver = std::function<InsnInfo(uint32_t ip)>;

/**
 * One canonical guest basic block: decoded from its entry until the
 * first block-ending instruction (or the decode cap). Never split at
 * interior branch targets, so the decomposition is a pure function of
 * (entry address, guest memory) — unlike the translator's regions,
 * whose block splits depend on discovery order and analysis window.
 */
struct GuestBlock
{
    uint32_t entry = 0;
    uint32_t term_ip = 0;   //!< Address of the terminating instruction.
    uint32_t term_next = 0; //!< Address after the terminator.
    InsnKind kind = InsnKind::Stop; //!< Terminator kind; Plain = cap hit.
    uint32_t taken = 0;     //!< Cond: branch-taken successor.
    uint32_t fall = 0;      //!< Cond: fall-through successor.
    uint32_t next = 0;      //!< Jump/CallDirect/Plain: static successor.
    uint32_t insns = 0;     //!< Decoded instruction count.
};

/** One report row: a canonical block and its completed executions. */
struct BlockRow
{
    GuestBlock block;
    uint64_t execs = 0;
};

/** Per-conditional-site edge counters. */
struct CondSite
{
    uint32_t taken_eip = 0; //!< Canonical taken target of the site.
    uint32_t fall_eip = 0;  //!< Canonical fall-through of the site.
    uint64_t taken = 0;     //!< Architectural taken executions.
    uint64_t fall = 0;      //!< Architectural fall-through executions.
    // How the *fired* (off-path) exits left translated code. These are
    // diagnostics, not architectural counts: which direction fires the
    // probe depends on the translation phase (a cold block exits on
    // taken, a hot trace side-exits off-trace), and linking depends on
    // patch timing — so both values, and even their sum, vary with
    // thread count and adoption order. Only taken/fall are invariant.
    uint64_t via_link = 0;
    uint64_t via_dispatch = 0;
};

/** One entry of a bounded top-K target table. */
struct TargetCount
{
    uint32_t target = 0;
    uint64_t count = 0;
};

/** Per-indirect-site value profile (space-saving top-K). */
struct IndirectSite
{
    uint64_t execs = 0;
    uint64_t hits = 0;      //!< Fast-lookup hits (predicted in cache).
    uint64_t misses = 0;    //!< Fast-lookup misses (exited to dispatch).
    uint64_t evictions = 0; //!< Top-K table evictions.
    std::vector<TargetCount> targets; //!< The top-K table.
};

/** The online execution profiler. */
class Profiler
{
  public:
    void setResolver(InsnResolver r) { resolver_ = std::move(r); }

    // ----- event intake (machine probe reports) ----------------------

    /**
     * A predicated conditional-exit probe was visited. @p fired is the
     * probe's predicate (true: control left through this exit to
     * @p exit_target); @p via_link distinguishes a patched (linked)
     * exit from one that still dispatches through the runtime.
     */
    void condEvent(uint32_t site_ip, uint32_t exit_target, bool fired,
                   bool via_link);

    /**
     * The fast-lookup miss probe of an indirect site was visited (this
     * happens on *every* architectural execution of the indirect —
     * the probe is nullified, but still visited, on a lookup hit).
     * @p target is the guest target EIP; @p hit is the lookup outcome.
     */
    void indirectEvent(uint32_t site_ip, uint32_t target, bool hit);

    /**
     * A stop-class terminator executed (syscall gate, breakpoint, halt,
     * undecodable instruction). @p key is the terminator's own address
     * or, for halt, the address after it; both are matched.
     */
    void stopEvent(uint32_t key);

    // ----- control-flow resynchronization ----------------------------

    /**
     * Re-anchor the block cursor at @p eip (run entry, post-syscall,
     * fault delivery, interpreter fallback, SMC re-execution). A
     * resync where the cursor block continues — its static successor,
     * which completes and counts it, or inside it — keeps the walk.
     */
    void resync(uint32_t eip);

    /**
     * Drop cached canonical blocks overlapping [addr, addr+len)
     * (self-modifying code) and every cached link. Counters are
     * retained, and a counted block keeps its report row. The cursor
     * is lost only when its own block overlaps the range.
     */
    void invalidateCode(uint32_t addr, uint32_t len);

    // ----- results ----------------------------------------------------

    /**
     * One row per canonical block entry, in entry order: every live
     * cached block, plus each counted block that code invalidation
     * dropped (with its last counted shape). `execs` sums every
     * incarnation of the entry. Built on each call.
     */
    std::map<uint32_t, BlockRow> blocks() const;

    const std::map<uint32_t, CondSite> &condSites() const
    {
        return cond_sites_;
    }

    const std::map<uint32_t, IndirectSite> &indirectSites() const
    {
        return indirect_sites_;
    }

    /** Internal health/summary counters, prefixed "prof.". */
    StatGroup counters() const;

    uint64_t walkBreaks() const { return walk_breaks_; }
    uint64_t lostEvents() const { return lost_events_; }
    uint64_t eventCount() const { return events_; }

  private:
    /**
     * One live canonical block of the hash index. The pointers are
     * caches, filled on first use; invalidateCode() is the only place
     * that drops the links, so between invalidations a probe is a few
     * pointer hops. Once the links are cached, everything a probe
     * reads of the block lies in its first cache line: the counter,
     * the links, the sites and the terminator.
     */
    struct alignas(64) Block
    {
        explicit Block(const GuestBlock &b) : g(b) {}

        uint64_t execs = 0;          //!< Completed executions.
        Block *next = nullptr;       //!< Static successor (g.next).
        Block *taken = nullptr;      //!< Cond: the site's taken block.
        Block *fall = nullptr;       //!< Cond: its fall-through block.
        CondSite *cond = nullptr;    //!< Cond: its terminator's site.
        IndirectSite *ind = nullptr; //!< Indirect: likewise.
        GuestBlock g;
    };
    static_assert(offsetof(Block, g) + offsetof(GuestBlock, kind) < 64,
                  "a probe's reads must stay in the block's first line");

    /** Decode the canonical block entered at @p entry (needs the
     *  resolver). */
    GuestBlock decode(uint32_t entry) const;

    /** The live block at @p entry, or null. Never decodes. */
    Block *find(uint32_t entry);

    /** The live block at @p entry, decoded and cached on first use;
     *  null without a resolver. */
    Block *resolve(uint32_t entry);

    /** Point the cursor at the block entered at @p eip. */
    void moveTo(uint32_t eip, Block *b = nullptr);

    /**
     * Walk from the cursor through static successors until @p matches
     * accepts a block; on success count every visited block as one
     * completed execution and return the matched block. On failure
     * (resolver missing, walk bound, or a non-walkable terminator
     * first) count nothing, lose the cursor and return null.
     */
    template <class Match> Block *walkTo(Match matches);

    InsnResolver resolver_;

    std::unordered_map<uint32_t, Block> live_; //!< Canonical block cache.
    std::map<uint32_t, BlockRow> retired_;     //!< Invalidated, counted.
    std::map<uint32_t, CondSite> cond_sites_;
    std::map<uint32_t, IndirectSite> indirect_sites_;

    Block *cur_ = nullptr; //!< Block being executed; null = not cached.
    uint32_t cur_eip_ = 0; //!< Its entry.
    bool cur_valid_ = false;

    uint64_t events_ = 0;
    uint64_t cond_events_ = 0;
    uint64_t indirect_events_ = 0;
    uint64_t stop_events_ = 0;
    uint64_t walk_breaks_ = 0;  //!< Cursor lost / walk bound exceeded.
    uint64_t lost_events_ = 0;  //!< Events with no valid cursor.
    uint64_t evictions_ = 0;    //!< Top-K evictions across all sites.
    uint64_t resyncs_ = 0;
};

} // namespace el::prof

#endif // EL_SUPPORT_PROFILE_HH
