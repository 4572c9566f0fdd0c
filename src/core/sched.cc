#include "core/sched.hh"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "ipf/regs.hh"
#include "support/logging.hh"

namespace el::core
{

using ipf::IpfOp;
using ipf::RegClass;
using ipf::Slot;

namespace
{

/** Operand reference: class + id. */
struct Ref
{
    RegClass cls = RegClass::None;
    int16_t id = -1;

    bool valid() const { return cls != RegClass::None && id >= 0; }
    bool operator<(const Ref &o) const
    {
        return cls != o.cls ? cls < o.cls : id < o.id;
    }
};

/** Collect the register reads of an IL (including its predicate). */
unsigned
reads(const Il &il, Ref out[5])
{
    const ipf::OpInfo &c = ipf::opInfo(il.ins.op);
    unsigned n = 0;
    const int16_t srcs[3] = {il.src1, il.src2, il.src3};
    for (unsigned k = 0; k < 3; ++k) {
        if (c.src[k] != RegClass::None && srcs[k] >= 0 &&
            !(c.src[k] == RegClass::Gr && srcs[k] == ipf::gr_zero)) {
            out[n++] = {c.src[k], srcs[k]};
        }
    }
    if (il.qp != 0)
        out[n++] = {RegClass::Pr, il.qp};
    // Post-increment memory ops also read+write their address register
    // (already covered as src1).
    return n;
}

/** Collect the register writes of an IL. */
unsigned
writes(const Il &il, Ref out[3])
{
    const ipf::OpInfo &c = ipf::opInfo(il.ins.op);
    unsigned n = 0;
    if (c.dst != RegClass::None && il.dst >= 0 &&
        !(c.dst == RegClass::Gr && il.dst == ipf::gr_zero)) {
        out[n++] = {c.dst, il.dst};
    }
    if (c.dst2 != RegClass::None && il.dst2 >= 0)
        out[n++] = {c.dst2, il.dst2};
    // Post-increment updates the address register.
    if ((il.ins.op == IpfOp::Ld || il.ins.op == IpfOp::St ||
         il.ins.op == IpfOp::Ldf || il.ins.op == IpfOp::Stf) &&
        il.ins.imm != 0) {
        out[n++] = {RegClass::Gr, il.src1};
    }
    return n;
}

/** Does the IL have side effects that forbid elimination? */
bool
hasSideEffects(const Il &il)
{
    switch (il.ins.op) {
      case IpfOp::St:
      case IpfOp::Stf:
      case IpfOp::ChkS:
      case IpfOp::Mf:
      case IpfOp::Br:
      case IpfOp::BrCall:
      case IpfOp::BrRet:
      case IpfOp::BrInd:
      case IpfOp::MovToBr:
      case IpfOp::Exit:
        return true;
      default:
        return il.is_ordered;
    }
}

/** Latency estimate for priorities. */
unsigned
latencyOf(const Il &il)
{
    switch (il.ins.op) {
      case IpfOp::Ld:
      case IpfOp::Ldf:
        return 3;
      case IpfOp::Getf:
      case IpfOp::Setf:
        return 5;
      case IpfOp::Xmul:
        return 12;
      case IpfOp::XDivS:
      case IpfOp::XDivU:
      case IpfOp::XRemS:
      case IpfOp::XRemU:
        return 45;
      case IpfOp::Fdiv:
      case IpfOp::Fsqrt:
      case IpfOp::Fpdiv:
        return 24;
      default:
        return ipf::opInfo(il.ins.op).slot == Slot::F ? 4 : 1;
    }
}

/** Is a virtual id (>= the physical file size for its class)? */
bool
isVirtual(const Ref &r)
{
    switch (r.cls) {
      case RegClass::Gr:
        return r.id >= vgr_base;
      case RegClass::Fr:
        return r.id >= vfr_base;
      case RegClass::Pr:
        return r.id >= vpr_base;
      default:
        return false;
    }
}

/** Slot capacity bookkeeping for one issue group. */
struct GroupState
{
    std::array<unsigned, static_cast<size_t>(Slot::NumSlots)> used{};
    unsigned total = 0; //!< issue slots (movl takes two)
    std::set<Ref> written;
    std::set<Ref> read;

    bool
    fits(const Il &il) const
    {
        const ipf::OpInfo &info = ipf::opInfo(il.ins.op);
        auto n = used;
        n[static_cast<size_t>(info.slot)] += info.width;
        auto at = [&](Slot s) { return n[static_cast<size_t>(s)]; };
        if (at(Slot::M) > 2 || at(Slot::I) > 2 || at(Slot::F) > 2 ||
            at(Slot::B) > 3 || total + info.width > 6)
            return false;
        if (at(Slot::M) + at(Slot::I) + at(Slot::A) > 4)
            return false;
        // No intra-group RAW: sources must not be written in this group.
        Ref rs[5];
        unsigned nr = reads(il, rs);
        for (unsigned k = 0; k < nr; ++k) {
            if (written.count(rs[k])) {
                // Exception: a branch may consume a predicate computed
                // in the same group.
                if (!(rs[k].cls == RegClass::Pr && info.slot == Slot::B))
                    return false;
            }
        }
        // No intra-group WAW or WAR-on-same-group-read.
        Ref ws[3];
        unsigned nw = writes(il, ws);
        for (unsigned k = 0; k < nw; ++k) {
            if (written.count(ws[k]))
                return false;
            if (read.count(ws[k]))
                return false;
        }
        return true;
    }

    void
    add(const Il &il)
    {
        const ipf::OpInfo &info = ipf::opInfo(il.ins.op);
        used[static_cast<size_t>(info.slot)] += info.width;
        total += info.width;
        Ref ws[3];
        unsigned nw = writes(il, ws);
        for (unsigned k = 0; k < nw; ++k)
            written.insert(ws[k]);
        Ref rs[5];
        unsigned nr = reads(il, rs);
        for (unsigned k = 0; k < nr; ++k)
            read.insert(rs[k]);
    }

    void
    clear()
    {
        used.fill(0);
        total = 0;
        written.clear();
        read.clear();
    }
};

/** Renamer: linear-scan mapping of virtual ids to the physical pools. */
class Renamer
{
  public:
    Renamer()
    {
        for (unsigned k = 0; k < ipf::gr_rename_count; ++k)
            free_gr_.push_back(
                static_cast<int16_t>(ipf::gr_rename_base + k));
        for (unsigned k = 0; k < ipf::fr_rename_count; ++k)
            free_fr_.push_back(
                static_cast<int16_t>(ipf::fr_rename_base + k));
        for (unsigned k = 0; k < ipf::pr_rename_count; ++k)
            free_pr_.push_back(
                static_cast<int16_t>(ipf::pr_rename_base + k));
    }

    /** Physical id for a reference; allocates on first definition. */
    bool
    resolve(Ref ref, bool is_def, int16_t *out)
    {
        if (!isVirtual(ref)) {
            *out = ref.id;
            return true;
        }
        auto it = map_.find(ref);
        if (it != map_.end()) {
            *out = it->second;
            return true;
        }
        if (!is_def) {
            // Use of a never-defined virtual register: the value is
            // undefined (e.g. a dead path); map it to zero/scratch.
            *out = ref.cls == RegClass::Gr ? ipf::gr_zero
                 : ref.cls == RegClass::Fr ? ipf::fr_zero
                                           : ipf::pr_t0;
            return true;
        }
        std::vector<int16_t> *pool =
            ref.cls == RegClass::Gr ? &free_gr_
            : ref.cls == RegClass::Fr ? &free_fr_
                                      : &free_pr_;
        if (pool->empty()) {
            el_warn("renamer: %s pool exhausted",
                    ref.cls == RegClass::Gr ? "GR"
                    : ref.cls == RegClass::Fr ? "FR" : "PR");
            return false;
        }
        int16_t phys = pool->back();
        pool->pop_back();
        map_[ref] = phys;
        return (*out = phys), true;
    }

    void
    release(Ref ref)
    {
        auto it = map_.find(ref);
        if (it == map_.end())
            return;
        std::vector<int16_t> *pool =
            ref.cls == RegClass::Gr ? &free_gr_
            : ref.cls == RegClass::Fr ? &free_fr_
                                      : &free_pr_;
        pool->push_back(it->second);
        map_.erase(it);
    }

    /** Final (or current) mapping of a virtual id, if any. */
    bool
    lookup(Ref ref, int16_t *out) const
    {
        auto it = map_.find(ref);
        if (it == map_.end())
            return false;
        *out = it->second;
        return true;
    }

  private:
    std::map<Ref, int16_t> map_;
    std::vector<int16_t> free_gr_, free_fr_, free_pr_;
};

} // namespace

ScheduleResult
schedule(std::vector<Il> ils, ipf::CodeCache &cache,
         const Options &options, bool reorder, bool speculate_loads,
         std::vector<RecoveryMap> *recovery)
{
    ScheduleResult result;
    const size_t n_in = ils.size();

    // ----- 1. Load speculation ---------------------------------------
    // Reorderable guest loads become ld.s; a chk.s at the original
    // position re-raises deferred faults by exiting to a cold
    // re-execution of the commit region (ExitReason::Resync).
    bool has_labels = false;
    for (const Il &il : ils)
        if (il.target_il >= 0)
            has_labels = true;
    if (reorder && speculate_loads && !has_labels) {
        std::vector<Il> out;
        out.reserve(ils.size() + 8);
        for (Il &il : ils) {
            if (il.is_load && il.ins.op == IpfOp::Ld && il.qp == 0 &&
                il.ins.imm == 0 && il.dst >= vgr_base) {
                il.ins.spec = ipf::Spec::S;
                il.is_ordered = false;
                out.push_back(il);
                Il chk;
                chk.ins.op = IpfOp::ChkS;
                chk.src1 = il.dst;
                chk.ins.target = -1;
                chk.ins.exit_payload = il.ins.exit_payload;
                chk.ins.meta = il.ins.meta;
                chk.region = il.region;
                chk.is_ordered = true;
                out.push_back(chk);
                ++result.loads_speculated;
            } else {
                out.push_back(il);
            }
        }
        ils = std::move(out);
    }
    const size_t n = ils.size();

    // ----- 2. Dead-IL elimination --------------------------------------
    if (reorder) {
        bool changed = true;
        while (changed) {
            changed = false;
            std::set<Ref> used;
            for (const Il &il : ils) {
                if (il.dead)
                    continue;
                Ref rs[5];
                unsigned nr = reads(il, rs);
                for (unsigned k = 0; k < nr; ++k)
                    used.insert(rs[k]);
            }
            // Recovery maps keep their referenced registers alive.
            if (recovery) {
                for (const RecoveryMap &m : *recovery) {
                    for (const Loc &l : m.gpr)
                        if (l.kind == Loc::Kind::Gr)
                            used.insert({RegClass::Gr, l.reg});
                    for (const Loc *l : {&m.flags.wide, &m.flags.a,
                                         &m.flags.b, &m.flags.res}) {
                        if (l->kind == Loc::Kind::Gr)
                            used.insert({RegClass::Gr, l->reg});
                    }
                }
            }
            for (Il &il : ils) {
                if (il.dead || hasSideEffects(il))
                    continue;
                Ref ws[3];
                unsigned nw = writes(il, ws);
                if (nw == 0)
                    continue;
                bool any_used = false;
                for (unsigned k = 0; k < nw; ++k) {
                    if (!isVirtual(ws[k]) || used.count(ws[k]))
                        any_used = true;
                }
                if (!any_used) {
                    il.dead = true;
                    ++result.dead_removed;
                    changed = true;
                }
            }
        }
    }

    // Compact away dead ILs, remembering index remapping for labels.
    std::vector<Il> live;
    std::vector<int32_t> old_to_new(n, -1);
    {
        // Build an original-index list first (labels refer to the
        // pre-speculation indices only when no labels exist, handled
        // above; here indices refer to the current `ils`).
        for (size_t k = 0; k < ils.size(); ++k) {
            if (!ils[k].dead) {
                old_to_new[k] = static_cast<int32_t>(live.size());
                live.push_back(ils[k]);
            }
        }
        for (Il &il : live) {
            if (il.target_il >= 0) {
                int32_t t = old_to_new[il.target_il];
                el_assert(t >= 0, "branch target eliminated");
                il.target_il = t;
            }
        }
    }

    // ----- 3. Ordering -----------------------------------------------
    // Windows are delimited by branches/exits and by branch targets.
    std::vector<size_t> order;
    order.reserve(live.size());
    std::vector<char> is_window_start(live.size() + 1, 0);
    for (const Il &il : live)
        if (il.target_il >= 0)
            is_window_start[il.target_il] = 1;

    auto is_barrier = [](const Il &il) {
        return ipf::opInfo(il.ins.op).slot == Slot::B;
    };

    // For branch targets: the final order position where each window
    // begins (branches always land on window starts).
    std::map<size_t, size_t> window_first_pos;

    size_t w_start = 0;
    while (w_start < live.size()) {
        size_t w_end = w_start;
        while (w_end < live.size()) {
            if (w_end > w_start && is_window_start[w_end])
                break;
            bool barrier = is_barrier(live[w_end]);
            ++w_end;
            if (barrier)
                break;
        }

        window_first_pos[w_start] = order.size();
        if (!reorder || w_end - w_start <= 2) {
            for (size_t k = w_start; k < w_end; ++k)
                order.push_back(k);
        } else {
            // List scheduling within [w_start, w_end).
            size_t cnt = w_end - w_start;
            std::vector<std::vector<int>> succ(cnt);
            std::vector<int> npred(cnt, 0);
            std::vector<int> prio(cnt, 0);
            std::map<Ref, int> last_def;
            std::map<Ref, std::vector<int>> readers;
            int last_ordered = -1;
            int last_store = -1;
            std::vector<int> loads_since_store;
            auto add_edge = [&](int from, int to) {
                if (from == to)
                    return;
                succ[from].push_back(to);
                ++npred[to];
            };
            for (size_t k = 0; k < cnt; ++k) {
                const Il &il = live[w_start + k];
                Ref rs[5];
                unsigned nr = reads(il, rs);
                for (unsigned q = 0; q < nr; ++q) {
                    auto it = last_def.find(rs[q]);
                    if (it != last_def.end())
                        add_edge(it->second, static_cast<int>(k));
                    readers[rs[q]].push_back(static_cast<int>(k));
                }
                // Recovery references act as reads at faulting points.
                if (recovery && il.ins.meta.commit_id >= 0 &&
                    il.is_ordered &&
                    il.ins.meta.commit_id <
                        static_cast<int32_t>(recovery->size())) {
                    const RecoveryMap &m =
                        (*recovery)[il.ins.meta.commit_id];
                    auto touch = [&](const Loc &l) {
                        if (l.kind != Loc::Kind::Gr)
                            return;
                        Ref ref{RegClass::Gr, l.reg};
                        auto it = last_def.find(ref);
                        if (it != last_def.end())
                            add_edge(it->second, static_cast<int>(k));
                        readers[ref].push_back(static_cast<int>(k));
                    };
                    for (const Loc &l : m.gpr)
                        touch(l);
                    touch(m.flags.wide);
                    touch(m.flags.a);
                    touch(m.flags.b);
                    touch(m.flags.res);
                }
                Ref ws[3];
                unsigned nw = writes(il, ws);
                for (unsigned q = 0; q < nw; ++q) {
                    auto it = last_def.find(ws[q]);
                    if (it != last_def.end())
                        add_edge(it->second, static_cast<int>(k)); // WAW
                    for (int rd : readers[ws[q]])
                        add_edge(rd, static_cast<int>(k)); // WAR
                    last_def[ws[q]] = static_cast<int>(k);
                    readers[ws[q]].clear();
                }
                if (il.is_ordered) {
                    if (last_ordered >= 0)
                        add_edge(last_ordered, static_cast<int>(k));
                    last_ordered = static_cast<int>(k);
                }
                // Memory dependences: control speculation (ld.s) only
                // defers faults — it gives no protection against stores,
                // so every load stays ordered after the previous store,
                // and stores stay after earlier loads.
                bool is_mem_load = il.ins.op == IpfOp::Ld ||
                                   il.ins.op == IpfOp::Ldf;
                bool is_mem_store = il.ins.op == IpfOp::St ||
                                    il.ins.op == IpfOp::Stf;
                if (is_mem_load) {
                    if (last_store >= 0)
                        add_edge(last_store, static_cast<int>(k));
                    loads_since_store.push_back(static_cast<int>(k));
                }
                if (is_mem_store) {
                    for (int ld : loads_since_store)
                        add_edge(ld, static_cast<int>(k));
                    loads_since_store.clear();
                    last_store = static_cast<int>(k);
                }
                // Region boundaries: an IL may not cross into an earlier
                // region's territory; approximate with edges from the
                // previous region's last ordered IL (covered above since
                // region closers are ordered).
            }
            // Critical-path priorities.
            for (size_t k = cnt; k-- > 0;) {
                int best = 0;
                for (int s : succ[k])
                    best = std::max(best, prio[s]);
                prio[k] = best + static_cast<int>(latencyOf(live[w_start + k]));
            }
            // Ready-list scheduling (stable on program order).
            std::vector<char> done(cnt, 0);
            size_t emitted = 0;
            std::vector<int> ready;
            for (size_t k = 0; k < cnt; ++k)
                if (npred[k] == 0)
                    ready.push_back(static_cast<int>(k));
            while (emitted < cnt) {
                el_assert(!ready.empty(), "scheduler deadlock");
                // Pick the highest-priority ready IL (ties: program
                // order).
                size_t best_idx = 0;
                for (size_t q = 1; q < ready.size(); ++q) {
                    if (prio[ready[q]] > prio[ready[best_idx]] ||
                        (prio[ready[q]] == prio[ready[best_idx]] &&
                         ready[q] < ready[best_idx])) {
                        best_idx = q;
                    }
                }
                int pick = ready[best_idx];
                ready.erase(ready.begin() + best_idx);
                order.push_back(w_start + pick);
                done[pick] = 1;
                ++emitted;
                for (int s : succ[pick]) {
                    if (--npred[s] == 0)
                        ready.push_back(s);
                }
            }
        }
        w_start = w_end;
    }

    // ----- 4. Group packing + renaming + emission ----------------------
    // Lifetimes in final order (for the renamer).
    std::vector<size_t> pos_of(live.size(), 0);
    for (size_t pos = 0; pos < order.size(); ++pos)
        pos_of[order[pos]] = pos;
    std::map<Ref, size_t> last_use;
    std::map<Ref, size_t> first_def;
    for (size_t pos = 0; pos < order.size(); ++pos) {
        const Il &il = live[order[pos]];
        Ref rs[5];
        unsigned nr = reads(il, rs);
        for (unsigned q = 0; q < nr; ++q)
            if (isVirtual(rs[q]))
                last_use[rs[q]] = pos;
        Ref ws[3];
        unsigned nw = writes(il, ws);
        for (unsigned q = 0; q < nw; ++q) {
            if (isVirtual(ws[q])) {
                last_use[ws[q]] = std::max(last_use[ws[q]], pos);
                if (!first_def.count(ws[q]))
                    first_def[ws[q]] = pos;
            }
        }
        if (recovery && il.ins.meta.commit_id >= 0 &&
            il.ins.meta.commit_id <
                static_cast<int32_t>(recovery->size())) {
            const RecoveryMap &m = (*recovery)[il.ins.meta.commit_id];
            auto touch = [&](const Loc &l) {
                if (l.kind == Loc::Kind::Gr &&
                    isVirtual({RegClass::Gr, l.reg})) {
                    last_use[{RegClass::Gr, l.reg}] =
                        std::max(last_use[{RegClass::Gr, l.reg}], pos);
                }
            };
            for (const Loc &l : m.gpr)
                touch(l);
            touch(m.flags.wide);
            touch(m.flags.a);
            touch(m.flags.b);
            touch(m.flags.res);
        }
    }

    // Loop backedges: a value defined before the loop and read inside it
    // is live across the whole loop body; extend such lifetimes to the
    // backedge source so the renamer does not recycle their registers.
    for (size_t k = 0; k < live.size(); ++k) {
        const Il &il = live[k];
        if (il.target_il < 0)
            continue;
        size_t src_pos = pos_of[k];
        size_t tgt_pos = pos_of[il.target_il];
        if (tgt_pos >= src_pos)
            continue; // forward branch
        for (auto &[ref, lu] : last_use) {
            auto fd = first_def.find(ref);
            size_t def_pos = fd == first_def.end() ? 0 : fd->second;
            // Only loop-invariant values (defined before the backedge
            // target, read inside the loop) are live across the edge;
            // values defined inside the loop are redefined before use
            // on re-execution.
            if (def_pos < tgt_pos && lu >= tgt_pos)
                lu = std::max(lu, src_pos);
        }
    }

    Renamer renamer;
    // Virtual -> physical map snapshots for recovery rewriting: a
    // virtual register referenced by recovery keeps a single physical
    // home for its whole lifetime, so one final map suffices.
    std::map<int16_t, int16_t> gr_final;

    result.entry = cache.nextIndex();
    result.il_to_cache.assign(n_in, -1);
    std::vector<int64_t> live_to_cache(live.size(), -1);

    GroupState group;
    int64_t group_start_cache = cache.nextIndex();
    std::vector<int64_t> emitted_cache_idx;
    emitted_cache_idx.reserve(order.size());

    auto close_group = [&](int64_t upto) {
        if (upto > group_start_cache) {
            cache.at(upto - 1).stop = true;
            ++result.groups;
        }
        group.clear();
        group_start_cache = upto;
    };

    for (size_t pos = 0; pos < order.size(); ++pos) {
        Il il = live[order[pos]];

        if (!group.fits(il))
            close_group(cache.nextIndex());

        // Rename operands.
        const ipf::OpInfo &c = ipf::opInfo(il.ins.op);
        auto do_resolve = [&](RegClass cls, int16_t id, bool is_def,
                              uint8_t *field) {
            if (cls == RegClass::None || id < 0) {
                return true;
            }
            Ref ref{cls, id};
            int16_t phys;
            if (!renamer.resolve(ref, is_def, &phys))
                return false;
            if (cls == RegClass::Gr && isVirtual(ref))
                gr_final[id] = phys;
            *field = static_cast<uint8_t>(phys);
            return true;
        };

        ipf::Instr out = il.ins;
        bool ok = true;
        // Sources first (they may be released after this position).
        {
            const int16_t srcs[3] = {il.src1, il.src2, il.src3};
            uint8_t *fields[3] = {&out.src1, &out.src2, &out.src3};
            for (unsigned q = 0; q < 3; ++q)
                ok = ok && do_resolve(c.src[q], srcs[q], false, fields[q]);
            if (il.qp != 0) {
                uint8_t qf = 0;
                ok = ok && do_resolve(RegClass::Pr, il.qp, false, &qf);
                out.qp = qf;
            } else {
                out.qp = 0;
            }
            // Release sources whose lifetime ends here.
            Ref rs[5];
            unsigned nr = reads(il, rs);
            for (unsigned q = 0; q < nr; ++q) {
                if (isVirtual(rs[q])) {
                    auto it = last_use.find(rs[q]);
                    if (it != last_use.end() && it->second == pos)
                        renamer.release(rs[q]);
                }
            }
        }
        // Destinations.
        ok = ok && do_resolve(c.dst, il.dst, true, &out.dst);
        ok = ok && do_resolve(c.dst2, il.dst2, true, &out.dst2);
        // Post-increment address registers are read+write via src1 and
        // were resolved above.
        if (!ok)
            return result; // pool exhausted; result.ok stays false
        {
            Ref ws[3];
            unsigned nw = writes(il, ws);
            for (unsigned q = 0; q < nw; ++q) {
                if (isVirtual(ws[q])) {
                    auto it = last_use.find(ws[q]);
                    if (it != last_use.end() && it->second <= pos)
                        renamer.release(ws[q]);
                }
            }
        }

        int64_t idx = cache.emit(out);
        emitted_cache_idx.push_back(idx);
        live_to_cache[order[pos]] = idx;
        group.add(il);

        if (is_barrier(il))
            close_group(cache.nextIndex());
    }
    close_group(cache.nextIndex());
    result.end = cache.nextIndex();

    // Fix intra-block branch targets: a target denotes the START of the
    // window beginning at that IL (reordering may move the IL itself).
    for (size_t k = 0; k < live.size(); ++k) {
        int64_t ci = live_to_cache[k];
        if (ci < 0)
            continue;
        const Il &il = live[k];
        if (il.target_il >= 0) {
            auto wit = window_first_pos.find(
                static_cast<size_t>(il.target_il));
            int64_t t;
            if (wit != window_first_pos.end()) {
                t = emitted_cache_idx[wit->second];
            } else {
                t = live_to_cache[il.target_il];
            }
            el_assert(t >= 0, "unresolved intra-block target");
            cache.at(ci).target = t;
        }
    }

    // Direct mapping: old_to_new covers ils -> live; but callers hold
    // indices into the ORIGINAL (pre-speculation) buffer. Speculation
    // only inserts ILs (never reorders or removes), so map original
    // index -> post-speculation index by replaying the insertion count.
    {
        std::vector<int32_t> orig_to_spec;
        orig_to_spec.reserve(n_in);
        if (ils.size() == n_in) {
            for (size_t k = 0; k < n_in; ++k)
                orig_to_spec.push_back(static_cast<int32_t>(k));
        } else {
            // chk.s ILs are identifiable: they were inserted right after
            // speculated loads.
            size_t spec_idx = 0;
            for (size_t k = 0; k < n_in; ++k) {
                orig_to_spec.push_back(static_cast<int32_t>(spec_idx));
                const Il &cur = ils[spec_idx];
                bool speculated = cur.ins.op == IpfOp::Ld &&
                                  cur.ins.spec == ipf::Spec::S;
                ++spec_idx;
                if (speculated && spec_idx < ils.size() &&
                    ils[spec_idx].ins.op == IpfOp::ChkS) {
                    ++spec_idx;
                }
            }
        }
        for (size_t k = 0; k < n_in; ++k) {
            int32_t si = orig_to_spec[k];
            int32_t lv = old_to_new[si];
            if (lv >= 0)
                result.il_to_cache[k] = live_to_cache[lv];
        }
    }

    // Rewrite recovery maps from virtual to physical registers.
    if (recovery) {
        auto fix = [&](Loc *l) {
            if (l->kind == Loc::Kind::Gr && l->reg >= vgr_base) {
                auto it = gr_final.find(l->reg);
                if (it != gr_final.end()) {
                    l->reg = it->second;
                } else {
                    // Referenced value was never materialized (dead
                    // path); point at r0.
                    l->reg = ipf::gr_zero;
                }
            }
        };
        for (RecoveryMap &m : *recovery) {
            for (Loc &l : m.gpr)
                fix(&l);
            fix(&m.flags.wide);
            fix(&m.flags.a);
            fix(&m.flags.b);
            fix(&m.flags.res);
        }
    }

    result.ok = true;
    return result;
}

} // namespace el::core
