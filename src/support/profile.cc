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

/** A terminator the walk continues through (no event of its own). */
bool
walkable(const GuestBlock &g)
{
    return g.kind == InsnKind::Jump || g.kind == InsnKind::CallDirect ||
           g.kind == InsnKind::Plain;
}

/** One past the block's last byte (at least one byte long). */
uint64_t
blockEnd(const GuestBlock &g)
{
    return g.term_next > g.entry ? g.term_next : uint64_t(g.entry) + 1;
}

} // namespace

GuestBlock
Profiler::decode(uint32_t entry) const
{
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
            return b;
        }
        ip = info.next;
    }
    // Decode cap reached without a terminator: pseudo-block that falls
    // through (mirrors the translator's own block-length cap).
    b.term_ip = ip;
    b.term_next = ip;
    b.kind = InsnKind::Plain;
    b.next = ip;
    return b;
}

Profiler::Block *
Profiler::find(uint32_t entry)
{
    auto it = live_.find(entry);
    return it == live_.end() ? nullptr : &it->second;
}

Profiler::Block *
Profiler::resolve(uint32_t entry)
{
    if (Block *b = find(entry))
        return b;
    if (!resolver_)
        return nullptr;
    return &live_.emplace(entry, decode(entry)).first->second;
}

void
Profiler::moveTo(uint32_t eip, Block *b)
{
    cur_ = b;
    cur_eip_ = eip;
    cur_valid_ = resolver_ != nullptr;
}

template <class Match>
Profiler::Block *
Profiler::walkTo(Match matches)
{
    if (!cur_valid_) {
        ++lost_events_;
        return nullptr;
    }
    // Almost every walk is the cursor block alone; the path is kept
    // because a walk that breaks counts nothing.
    Block *path[max_walk + 1];
    Block *b = cur_ ? cur_ : resolve(cur_eip_);
    for (unsigned n = 0; b; ++n) {
        path[n] = b;
        if (matches(b->g)) {
            for (unsigned k = 0; k <= n; ++k)
                ++path[k]->execs;
            return b;
        }
        // Only statically-successored blocks can be walked through;
        // anything else would have produced its own event first.
        if (!walkable(b->g) || n == max_walk)
            break;
        if (!b->next)
            b->next = resolve(b->g.next);
        b = b->next;
    }
    ++walk_breaks_;
    cur_valid_ = false;
    return nullptr;
}

void
Profiler::condEvent(uint32_t site_ip, uint32_t exit_target, bool fired,
                    bool via_link)
{
    ++events_;
    ++cond_events_;

    Block *b = walkTo([site_ip](const GuestBlock &g) {
        return g.kind == InsnKind::Cond && g.term_ip == site_ip;
    });

    CondSite *cs = b ? b->cond : nullptr;
    if (!cs) {
        auto it = cond_sites_.find(site_ip);
        if (it == cond_sites_.end()) {
            CondSite fresh;
            bool resolved = false;
            if (resolver_) {
                InsnInfo info = resolver_(site_ip);
                if (info.kind == InsnKind::Cond) {
                    fresh.taken_eip = info.target;
                    fresh.fall_eip = info.next;
                    resolved = true;
                }
            }
            if (!resolved) {
                // No resolver (unit tests): classify by fired alone,
                // which the degenerate taken == fall rule below
                // reduces to.
                fresh.taken_eip = exit_target;
                fresh.fall_eip = exit_target;
            }
            it = cond_sites_.emplace(site_ip, fresh).first;
        }
        cs = &it->second;
        if (b)
            b->cond = cs;
    }

    // The probe's exit target is whichever direction leaves the
    // translated path (cold: always taken; hot: the off-trace side),
    // so the architectural direction is recovered by comparing it
    // against the site's canonical taken target. A degenerate Jcc
    // whose two successors coincide counts as taken, unconditionally —
    // the probe's fired bit is phase-dependent there.
    bool went_taken =
        cs->taken_eip == cs->fall_eip
            ? true
            : (fired ? exit_target == cs->taken_eip
                     : exit_target != cs->taken_eip);
    if (went_taken)
        ++cs->taken;
    else
        ++cs->fall;
    if (fired) {
        if (via_link)
            ++cs->via_link;
        else
            ++cs->via_dispatch;
    }

    // The destination is known from the site itself, so the cursor
    // recovers even when the walk broke.
    uint32_t dest = went_taken ? cs->taken_eip : cs->fall_eip;
    Block *link = nullptr;
    if (b) {
        Block *&slot = went_taken ? b->taken : b->fall;
        if (!slot)
            slot = find(dest);
        link = slot;
        if (link)
            __builtin_prefetch(link);
    }
    moveTo(dest, link);
}

void
Profiler::indirectEvent(uint32_t site_ip, uint32_t target, bool hit)
{
    ++events_;
    ++indirect_events_;

    Block *b = walkTo([site_ip](const GuestBlock &g) {
        return g.kind == InsnKind::Indirect && g.term_ip == site_ip;
    });

    IndirectSite *s = b ? b->ind : nullptr;
    if (!s) {
        s = &indirect_sites_[site_ip];
        if (b)
            b->ind = s;
    }
    ++s->execs;
    if (hit)
        ++s->hits;
    else
        ++s->misses;

    // Space-saving top-K: an unseen target beyond capacity replaces the
    // smallest entry and inherits its count + 1 (an upper bound on the
    // new target's true count; deterministic first-minimum tie-break).
    bool found = false;
    for (TargetCount &tc : s->targets) {
        if (tc.target == target) {
            ++tc.count;
            found = true;
            break;
        }
    }
    if (!found) {
        if (s->targets.size() < topk) {
            s->targets.push_back({target, 1});
        } else {
            size_t min_i = 0;
            for (size_t i = 1; i < s->targets.size(); ++i)
                if (s->targets[i].count < s->targets[min_i].count)
                    min_i = i;
            ++s->evictions;
            ++evictions_;
            s->targets[min_i].target = target;
            s->targets[min_i].count += 1;
        }
    }

    moveTo(target);
}

void
Profiler::stopEvent(uint32_t key)
{
    ++events_;
    ++stop_events_;

    walkTo([key](const GuestBlock &g) {
        return g.kind == InsnKind::Stop &&
               (g.term_ip == key || g.term_next == key);
    });

    // The runtime resynchronizes explicitly after servicing the stop
    // (syscall return EIP, fault delivery target, run end).
    cur_valid_ = false;
}

void
Profiler::resync(uint32_t eip)
{
    ++resyncs_;
    if (cur_valid_) {
        // Shape of the block the cursor is in; a never-cached one is
        // decoded but not cached, as no walk has reached it yet.
        Block *b = cur_ ? cur_ : find(cur_eip_);
        GuestBlock g = b ? b->g : decode(cur_eip_);
        if (walkable(g) && g.next == eip) {
            // Execution left the block through its terminator (an SMC
            // exit at the callee's head): complete the walk.
            if (!b)
                b = resolve(g.entry);
            ++b->execs;
            moveTo(eip, b->next);
            return;
        }
        if (g.entry <= eip && eip < blockEnd(g))
            return; // re-executes inside the cursor block
    }
    moveTo(eip);
}

void
Profiler::invalidateCode(uint32_t addr, uint32_t len)
{
    uint64_t lo = addr;
    uint64_t hi = static_cast<uint64_t>(addr) + len;
    auto overlaps = [lo, hi](const GuestBlock &g) {
        return g.entry < hi && blockEnd(g) > lo;
    };
    if (cur_valid_) {
        Block *b = cur_ ? cur_ : find(cur_eip_);
        if (overlaps(b ? b->g : decode(cur_eip_))) {
            cur_ = nullptr;
            cur_valid_ = false;
        }
    }
    for (auto it = live_.begin(); it != live_.end();) {
        Block &b = it->second;
        b.next = b.taken = b.fall = nullptr;
        if (!overlaps(b.g)) {
            ++it;
            continue;
        }
        if (b.execs) {
            BlockRow &row = retired_[it->first];
            row.block = b.g;
            row.execs += b.execs;
        }
        it = live_.erase(it);
    }
}

std::map<uint32_t, BlockRow>
Profiler::blocks() const
{
    std::map<uint32_t, BlockRow> rows = retired_;
    for (const auto &[entry, b] : live_) {
        BlockRow &row = rows[entry];
        row.block = b.g;
        row.execs += b.execs;
    }
    return rows;
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
    g.set("prof.canon_blocks", live_.size());
    uint64_t counted = 0;
    for (const auto &[entry, row] : blocks())
        counted += row.execs > 0;
    g.set("prof.blocks_counted", counted);
    g.set("prof.cond_sites", cond_sites_.size());
    g.set("prof.indirect_sites", indirect_sites_.size());
    g.set("prof.topk_evictions", evictions_);
    return g;
}

} // namespace el::prof
