#include "support/profile.hh"

namespace el::prof
{

namespace
{

/** Targets tracked per indirect site (space-saving top-K). */
constexpr unsigned topk = 8;
/** Chain-walk bound, in blocks per event. */
constexpr unsigned max_walk = 64;
/** Canonical block decode cap, in instructions. */
constexpr unsigned max_block_insns = 128;

} // namespace

const GuestBlock *
Profiler::resolveBlock(uint32_t entry)
{
    auto it = blocks_.find(entry);
    if (it != blocks_.end())
        return &it->second;
    if (!resolver_)
        return nullptr;

    GuestBlock b;
    b.entry = entry;
    uint32_t ip = entry;
    for (unsigned n = 0; n < max_block_insns; ++n) {
        InsnInfo info = resolver_(ip);
        ++b.insns;
        if (info.kind != InsnKind::Plain) {
            b.term_ip = ip;
            b.term_next = info.next;
            b.kind = info.kind;
            b.taken = info.target;
            b.fall = info.next;
            b.next = (info.kind == InsnKind::Jump ||
                      info.kind == InsnKind::CallDirect)
                         ? info.target
                         : 0;
            return &blocks_.emplace(entry, b).first->second;
        }
        ip = info.next;
    }
    // Decode cap reached without a terminator: pseudo-block that falls
    // through (mirrors the translator's own block-length cap).
    b.term_ip = ip;
    b.term_next = ip;
    b.kind = InsnKind::Plain;
    b.next = ip;
    return &blocks_.emplace(entry, b).first->second;
}

const GuestBlock *
Profiler::walkTo(const std::function<bool(const GuestBlock &)> &matches)
{
    if (!cursor_valid_) {
        ++lost_events_;
        return nullptr;
    }
    uint32_t ip = cursor_;
    std::vector<uint32_t> visited;
    for (unsigned i = 0; i <= max_walk; ++i) {
        const GuestBlock *b = resolveBlock(ip);
        if (!b)
            break;
        visited.push_back(b->entry);
        if (matches(*b)) {
            for (uint32_t e : visited)
                ++block_execs_[e];
            return b;
        }
        // Only statically-successored blocks can be walked through;
        // anything else would have produced its own event first.
        if (b->kind != InsnKind::Jump &&
            b->kind != InsnKind::CallDirect && b->kind != InsnKind::Plain)
            break;
        ip = b->next;
    }
    ++walk_breaks_;
    cursor_valid_ = false;
    return nullptr;
}

void
Profiler::condEvent(uint32_t site_ip, uint32_t exit_target, bool fired,
                    bool via_link)
{
    ++events_;
    ++cond_events_;

    auto it = cond_sites_.find(site_ip);
    if (it == cond_sites_.end()) {
        CondSite cs;
        bool resolved = false;
        if (resolver_) {
            InsnInfo info = resolver_(site_ip);
            if (info.kind == InsnKind::Cond) {
                cs.taken_eip = info.target;
                cs.fall_eip = info.next;
                resolved = true;
            }
        }
        if (!resolved) {
            // No resolver (unit tests): classify by fired alone, which
            // the degenerate taken == fall rule below reduces to.
            cs.taken_eip = exit_target;
            cs.fall_eip = exit_target;
        }
        it = cond_sites_.emplace(site_ip, cs).first;
    }

    CondSite &cs = it->second;
    // The probe's exit target is whichever direction leaves the
    // translated path (cold: always taken; hot: the off-trace side),
    // so the architectural direction is recovered by comparing it
    // against the site's canonical taken target. A degenerate Jcc
    // whose two successors coincide counts as taken, unconditionally —
    // the probe's fired bit is phase-dependent there.
    bool went_taken =
        cs.taken_eip == cs.fall_eip
            ? true
            : (fired ? exit_target == cs.taken_eip
                     : exit_target != cs.taken_eip);
    if (went_taken)
        ++cs.taken;
    else
        ++cs.fall;
    if (fired) {
        if (via_link)
            ++cs.via_link;
        else
            ++cs.via_dispatch;
    }

    walkTo([&](const GuestBlock &b) {
        return b.kind == InsnKind::Cond && b.term_ip == site_ip;
    });

    // The destination is known from the site itself, so the cursor
    // recovers even when the walk broke.
    if (resolver_) {
        cursor_ = went_taken ? cs.taken_eip : cs.fall_eip;
        cursor_valid_ = true;
    }
}

void
Profiler::indirectEvent(uint32_t site_ip, uint32_t target, bool hit)
{
    ++events_;
    ++indirect_events_;

    IndirectSite &s = indirect_sites_[site_ip];
    ++s.execs;
    if (hit)
        ++s.hits;
    else
        ++s.misses;

    // Space-saving top-K: an unseen target beyond capacity replaces the
    // smallest entry and inherits its count + 1 (an upper bound on the
    // new target's true count; deterministic first-minimum tie-break).
    bool found = false;
    for (TargetCount &tc : s.targets) {
        if (tc.target == target) {
            ++tc.count;
            found = true;
            break;
        }
    }
    if (!found) {
        if (s.targets.size() < topk) {
            s.targets.push_back({target, 1});
        } else {
            size_t min_i = 0;
            for (size_t i = 1; i < s.targets.size(); ++i)
                if (s.targets[i].count < s.targets[min_i].count)
                    min_i = i;
            ++s.evictions;
            ++evictions_;
            s.targets[min_i].target = target;
            s.targets[min_i].count += 1;
        }
    }

    walkTo([&](const GuestBlock &b) {
        return b.kind == InsnKind::Indirect && b.term_ip == site_ip;
    });

    cursor_ = target;
    cursor_valid_ = resolver_ != nullptr;
}

void
Profiler::stopEvent(uint32_t key)
{
    ++events_;
    ++stop_events_;

    walkTo([&](const GuestBlock &b) {
        return b.kind == InsnKind::Stop &&
               (b.term_ip == key || b.term_next == key);
    });

    // The runtime resynchronizes explicitly after servicing the stop
    // (syscall return EIP, fault delivery target, run end).
    cursor_valid_ = false;
}

void
Profiler::resync(uint32_t eip)
{
    ++resyncs_;
    cursor_ = eip;
    cursor_valid_ = resolver_ != nullptr;
}

void
Profiler::invalidateCode(uint32_t addr, uint32_t len)
{
    uint64_t lo = addr;
    uint64_t hi = static_cast<uint64_t>(addr) + len;
    for (auto it = blocks_.begin(); it != blocks_.end();) {
        uint64_t b_lo = it->second.entry;
        uint64_t b_hi = it->second.term_next > it->second.entry
                            ? it->second.term_next
                            : it->second.entry + 1;
        if (b_lo < hi && b_hi > lo)
            it = blocks_.erase(it);
        else
            ++it;
    }
    cursor_valid_ = false;
}

StatGroup
Profiler::counters() const
{
    StatGroup g;
    g.set("prof.events", events_);
    g.set("prof.events.cond", cond_events_);
    g.set("prof.events.indirect", indirect_events_);
    g.set("prof.events.stop", stop_events_);
    g.set("prof.walk_breaks", walk_breaks_);
    g.set("prof.lost_events", lost_events_);
    g.set("prof.resyncs", resyncs_);
    g.set("prof.canon_blocks", blocks_.size());
    g.set("prof.blocks_counted", block_execs_.size());
    g.set("prof.cond_sites", cond_sites_.size());
    g.set("prof.indirect_sites", indirect_sites_.size());
    g.set("prof.topk_evictions", evictions_);
    return g;
}

} // namespace el::prof
