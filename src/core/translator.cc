#include "core/translator.hh"

#include "ia32/decoder.hh"
#include "persist/store.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"
#include "support/sentinel.hh"

namespace el::core
{

using ia32::Insn;
using ia32::Op;
using ipf::ExitReason;
using ipf::IpfOp;
using trace::Kind;

Translator::Translator(const Options &opts, mem::Memory &memory,
                       ipf::CodeCache &cache, uint64_t rt_base)
    : options(opts), mem_(memory), cache_(cache), rt_base_(rt_base)
{
    cache_.setCapacity(options.code_cache_capacity);
}

bool
Translator::specMatches(const BlockInfo &block, const SpecContext &spec)
{
    if (block.invalidated)
        return false;
    const GuardInfo &g = block.guard;
    if (g.checks_fp) {
        if (spec.tos != g.expect_tos)
            return false;
        if ((spec.tag & g.need_valid) != g.need_valid)
            return false;
        if ((spec.tag & g.need_empty) != 0)
            return false;
    }
    // Domain and XMM-format mismatches are repaired by the runtime
    // (cheap conversions), so they do not select variants.
    return true;
}

int64_t
Translator::allocProfile(uint32_t bytes)
{
    int64_t off = profile_next_;
    int64_t next = profile_next_ + ((bytes + 7) & ~7u);
    if (next >= static_cast<int64_t>(rt::area_size)) {
        // Graceful: the block runs uninstrumented rather than the
        // translator asserting. Flush GC reclaims the area eventually.
        stats.add("recover.profile_exhausted");
        return -1;
    }
    profile_next_ = next;
    return off;
}

void
Translator::retire(BlockInfo *block, Kind kind, ProvState state,
                   ProvCause cause)
{
    block->invalidated = true;
    // Stale links into the block now exit to the runtime, which
    // re-executes the entry cold.
    if (block->cache_entry >= 0)
        cache_.invalidateEntry(block->cache_entry, ExitReason::Resync,
                               block->entry_eip);
    obs_->recordNow(kind, {block->entry_eip, block->id}, 0,
                    {{state, cause, block->id}});
}

void
Translator::flushCodeCache()
{
    // Retired before the flush, so each ledger step carries the dying
    // generation.
    for (auto &bp : blocks_)
        if (!bp->invalidated)
            retire(bp.get(), Kind::Provenance, ProvState::Discarded,
                   ProvCause::CacheFlush);
    cold_map_.clear();
    hot_map_.clear();
    cache_.flushAll();

    // Stale EIP -> cache-index mappings in the indirect fast-lookup
    // table and the bump-allocated profile counters all refer to the
    // dead generation; zero both regions and reclaim the profile area.
    for (int64_t off = rt::lookup_table; off < profile_next_; off += 8)
        mem_.writePriv(rt_base_ + static_cast<uint64_t>(off), 8, 0);
    profile_next_ = rt::profile_base;

    pending_cycles_ += cache_flush_cost;
    stats.add("recover.cache_flush");
    stats.set("cache.generation", cache_.generation());
    obs_->recordNow(Kind::CacheFlush,
                    {static_cast<int64_t>(cache_.generation())},
                    cache_flush_cost);
}

void
Translator::maybeFlushForRoom()
{
    if (cache_.exhausted(options.cache_headroom))
        flushCodeCache();
}

uint32_t
Translator::readCounter(int64_t off) const
{
    uint64_t v = 0;
    mem_.readPriv(rt_base_ + static_cast<uint64_t>(off), 4, &v);
    return static_cast<uint32_t>(v);
}

BlockInfo *
Translator::blockById(int32_t id)
{
    if (id < 0 || id >= static_cast<int32_t>(blocks_.size()))
        return nullptr;
    return blocks_[id].get();
}

BlockInfo *
Translator::dispatch(uint32_t eip, const SpecContext &spec)
{
    auto hit = hot_map_.find(eip);
    if (hit != hot_map_.end()) {
        for (Variant &v : hit->second)
            if (specMatches(*v.block, spec))
                return v.block;
    }
    // Persisted artifacts are preferred over cold translation for the
    // same reason live hot versions are preferred over cold blocks: a
    // store hit skips both phases for this EIP.
    if (options.persist) {
        if (BlockInfo *adopted = adoptPersisted(eip, spec))
            return adopted;
    }
    return dispatchCold(eip, spec, false);
}

BlockInfo *
Translator::dispatchCold(uint32_t eip, const SpecContext &spec,
                         bool fresh_variant)
{
    if (!fresh_variant) {
        auto cit = cold_map_.find(eip);
        if (cit != cold_map_.end()) {
            for (Variant &v : cit->second)
                if (specMatches(*v.block, spec))
                    return v.block;
        }
    }
    MisalignStage stage = misaligned_.count(eip)
                              ? MisalignStage::Detailed
                              : MisalignStage::Light;
    return translateCold(eip, spec, stage);
}

void
Translator::disableHeat(BlockInfo *block)
{
    // Invalidated blocks carry indices from a dead cache generation.
    if (!block || block->invalidated || block->cache_entry < 0)
        return;
    for (int64_t i = block->cache_entry; i < block->cache_end; ++i) {
        ipf::Instr &in = cache_.at(i);
        if (in.op == IpfOp::Exit &&
            in.exit_reason == ExitReason::RegisterHot) {
            // Keep the RegisterHot reason on the Nop: the machine only
            // honors exit_reason on Exit ops, and enableHeat() uses it
            // to find the silenced counter when a worker's session
            // fails and the block must become registrable again.
            in.op = IpfOp::Nop;
        }
    }
}

void
Translator::enableHeat(BlockInfo *block)
{
    if (!block || block->invalidated || block->cache_entry < 0)
        return;
    for (int64_t i = block->cache_entry; i < block->cache_end; ++i) {
        ipf::Instr &in = cache_.at(i);
        if (in.op == IpfOp::Nop &&
            in.exit_reason == ExitReason::RegisterHot)
            in.op = IpfOp::Exit;
    }
}

void
Translator::unlinkBlockExits(BlockInfo *block)
{
    if (!block || block->invalidated || block->cache_entry < 0)
        return;
    for (ExitStub &s : block->stubs) {
        if (s.cache_index < 0 || s.cache_index >= cache_.nextIndex())
            continue;
        ipf::Instr &in = cache_.at(s.cache_index);
        if (in.op != IpfOp::Br)
            continue;
        // Invert patchToBranch(): the stub record keeps the guest
        // target, so the LinkMiss exit is fully reconstructible.
        in.op = IpfOp::Exit;
        in.exit_reason = ExitReason::LinkMiss;
        in.exit_payload = s.target_eip;
        in.target = -1;
        s.patched = false;
    }
    obs_->recordNow(Kind::ExitUnlink, {block->entry_eip, block->id});
}

void
Translator::recordMisalignment(uint32_t block_eip)
{
    misaligned_.insert(block_eip);
    stats.add("misalign.events");
}

void
Translator::discardHotBlock(BlockInfo *block)
{
    if (!block || block->invalidated)
        return;
    stats.add("hot.discarded_for_misalignment");
    retire(block, Kind::Provenance, ProvState::Discarded,
           ProvCause::Misalign);
}

void
Translator::quarantineBlock(BlockInfo *block)
{
    if (!block || block->invalidated)
        return;
    stats.add("sentinel.blocks_quarantined");
    // Convicted code must never ship: purge every store record at this
    // entry so the next save cannot resurrect it in another process.
    if (options.persist) {
        options.persist->dropAt(block->entry_eip);
        obs_->recordNow(Kind::Provenance, {block->entry_eip}, 0,
                        {{ProvState::Discarded, ProvCause::QuarantinePurge,
                          block->id}});
    }
    retire(block, Kind::Quarantine, ProvState::Quarantined,
           ProvCause::SentinelDivergence);
}

bool
Translator::corruptTranslation(ipf::CodeCache &cache, int64_t lo,
                               int64_t hi,
                               const std::function<uint64_t(uint64_t)> &pick)
{
    // Candidates are immediate-carrying ALU/move ops: flipping their low
    // imm bit yields code that still schedules, links, and runs — the
    // silent-wrong-value failure mode, not a crash.
    std::vector<int64_t> candidates;
    for (int64_t i = lo; i < hi; ++i) {
        const ipf::Instr &in = cache.at(i);
        if (in.op == IpfOp::AddImm || in.op == IpfOp::CmpImm ||
            in.op == IpfOp::ShlImm || in.op == IpfOp::Movl)
            candidates.push_back(i);
    }
    if (candidates.empty())
        return false;
    int64_t victim = candidates[pick(candidates.size())];
    cache.at(victim).imm ^= 1;
    return true;
}

void
Translator::invalidateRange(uint32_t addr, uint32_t len)
{
    int64_t dropped = 0;
    for (auto &bp : blocks_) {
        BlockInfo &b = *bp;
        if (b.invalidated || b.cache_entry < 0)
            continue;
        // Conservative: invalidate blocks whose entry lies in the range
        // or that carry any instruction translated from those bytes —
        // a hot trace that inlined a patched callee has a different
        // entry EIP but still executes the stale code.
        bool hit = b.entry_eip >= addr && b.entry_eip < addr + len;
        for (int64_t i = b.cache_entry; !hit && i < b.cache_end; ++i) {
            uint32_t ip = cache_.at(i).meta.ia32_ip;
            hit = ip >= addr && ip < addr + len;
        }
        if (hit) {
            retire(&b, Kind::Provenance, ProvState::Discarded,
                   ProvCause::SmcWrite);
            ++dropped;
        }
    }
    stats.add("smc.invalidations");
    obs_->recordNow(Kind::SmcInvalidate, {addr, len, dropped});
}

BlockInfo *
Translator::regenerateForMisalignment(uint32_t eip,
                                      const SpecContext &spec)
{
    // Retire the live variants at this EIP; regenerate at stage 2.
    auto cit = cold_map_.find(eip);
    if (cit != cold_map_.end()) {
        for (Variant &v : cit->second)
            if (!v.block->invalidated)
                retire(v.block, Kind::Provenance, ProvState::Discarded,
                       ProvCause::Misalign);
        cold_map_.erase(cit);
    }
    stats.add("misalign.block_regenerations");
    return translateCold(eip, spec, MisalignStage::Detailed);
}

void
Translator::emitBlockEnd(EmitEnv &env, const BasicBlock &bb,
                         BlockInfo *info, bool trace_mode)
{
    const Insn *last = bb.insns.empty() ? nullptr : &bb.insns.back();
    bool has_branch = last && ia32::endsBlock(*last);

    auto sync_for_exit = [&]() {
        if (trace_mode)
            env.syncAllToHomes();
        env.emitStatusTail();
    };

    if (!has_branch) {
        uint32_t next = bb.fall ? bb.fall
                      : (last ? last->next() : bb.start);
        sync_for_exit();
        env.endBranch(next);
        return;
    }

    const Insn &insn = *last;
    switch (insn.op) {
      case Op::Jcc: {
        env.beginInsn(insn, bb.flags_live_out);
        int16_t p = env.condPred(insn.cond);
        if (!trace_mode && info->edge_ctr_off >= 0)
            env.emitEdgeCounter(info->edge_ctr_off, p);
        env.endInsn();
        sync_for_exit();
        env.endBranch(insn.target(), p);
        env.endBranch(insn.next());
        return;
      }
      case Op::Jmp:
        sync_for_exit();
        env.endBranch(insn.target());
        return;
      case Op::Call: {
        env.beginInsn(insn, bb.flags_live_out);
        Insn push = insn;
        push.op = Op::Push;
        push.op_size = 4;
        push.dst = ia32::Operand::makeImm(insn.next());
        push.src = ia32::Operand{};
        translateInsn(env, push);
        env.endInsn();
        sync_for_exit();
        env.endBranch(insn.target());
        return;
      }
      case Op::CallInd: {
        env.beginInsn(insn, bb.flags_live_out);
        int16_t t = env.readOperand(insn.src, 4);
        Insn push = insn;
        push.op = Op::Push;
        push.op_size = 4;
        push.dst = ia32::Operand::makeImm(insn.next());
        push.src = ia32::Operand{};
        translateInsn(env, push);
        env.endInsn();
        sync_for_exit();
        env.endIndirect(t);
        return;
      }
      case Op::JmpInd: {
        env.beginInsn(insn, bb.flags_live_out);
        int16_t t = env.readOperand(insn.src, 4);
        env.endInsn();
        sync_for_exit();
        env.endIndirect(t);
        return;
      }
      case Op::Ret: {
        env.beginInsn(insn, bb.flags_live_out);
        int16_t esp = env.readGuest(ia32::RegEsp);
        int16_t t = env.emitLoad(esp, 4);
        int16_t na = env.newGr();
        env.emitOp(IpfOp::AddImm, na, esp, -1,
                   4 + static_cast<int64_t>(insn.src.imm));
        env.writeGuest(ia32::RegEsp, na, 4, /*clean=*/false);
        env.endInsn();
        sync_for_exit();
        env.endIndirect(t);
        return;
      }
      case Op::Int: {
        env.beginInsn(insn, bb.flags_live_out);
        env.endInsn();
        sync_for_exit();
        int64_t payload =
            (static_cast<int64_t>(insn.src.imm & 0xff) << 32) |
            insn.next();
        env.endExit(ExitReason::SyscallGate, payload);
        return;
      }
      case Op::Int3:
        sync_for_exit();
        env.endExit(ExitReason::Breakpoint, insn.addr);
        return;
      case Op::Hlt:
        sync_for_exit();
        env.endExit(ExitReason::Halt, insn.next());
        return;
      default:
        sync_for_exit();
        env.endExit(ExitReason::GuestFault,
                    (static_cast<int64_t>(insn.addr) << 8) |
                        static_cast<int64_t>(
                            ia32::FaultKind::InvalidOpcode));
        return;
    }
}

bool
Translator::finishInto(EmitEnv &env, BlockInfo *info,
                       ipf::CodeCache &cache, const Options &options,
                       bool reorder, SchedTally *tally)
{
    // Concatenate head (guards + instrumentation) and body, fixing up
    // body-relative IL references.
    int32_t off = static_cast<int32_t>(env.head.size());
    std::vector<Il> all;
    all.reserve(env.head.size() + env.body.size());
    for (const Il &il : env.head.ils)
        all.push_back(il);
    for (Il il : env.body.ils) {
        if (il.target_il >= 0)
            il.target_il += off;
        all.push_back(il);
    }

    ScheduleResult res =
        schedule(std::move(all), cache, options, reorder,
                 options.enable_load_speculation && reorder,
                 &env.recovery);
    if (!res.ok)
        return false;
    info->cache_entry = res.entry;
    info->cache_end = res.end;
    info->recovery = std::move(env.recovery);
    info->guard = env.guard;
    for (const auto &stub : env.pending_stubs) {
        int64_t ci = res.il_to_cache[stub.il_index + off];
        el_assert(ci >= 0, "stub IL lost in scheduling");
        info->stubs.push_back({ci, stub.target_eip, false});
    }
    tally->groups = res.groups;
    tally->dead_removed = res.dead_removed;
    tally->loads_speculated = res.loads_speculated;
    tally->ipf_insns = res.end - res.entry;
    return true;
}

bool
Translator::finishBlock(EmitEnv &env, BlockInfo *info, bool reorder)
{
    SchedTally tally;
    if (!finishInto(env, info, cache_, options, reorder, &tally)) {
        stats.add("sched.failures");
        return false;
    }
    stats.add("sched.groups", tally.groups);
    stats.add("sched.dead_removed", tally.dead_removed);
    stats.add("sched.loads_speculated", tally.loads_speculated);
    stats.add(reorder ? "xlate.hot_ipf_insns" : "xlate.cold_ipf_insns",
              tally.ipf_insns);
    return true;
}

BlockInfo *
Translator::translateCold(uint32_t eip, const SpecContext &spec,
                          MisalignStage stage)
{
    // The flag must describe this attempt only: an abort injected at a
    // tolerant call site (link patching, hot chaining) must not latch
    // and reroute a later genuine decode failure.
    injected_abort_ = false;
    if (faultInjected(FaultSite::ColdXlateAbort)) {
        // Injected mid-session abort: report failure distinctly so the
        // runtime falls back to the interpreter instead of raising #UD.
        injected_abort_ = true;
        stats.add("xlate.cold_aborts_injected");
        return nullptr;
    }
    maybeFlushForRoom();
    BlockInfo *info = translateColdImpl(eip, spec, stage, true);
    if (info && info->cache_entry >= 0 &&
        faultInjected(FaultSite::Miscompile)) {
        FaultInjector *fi = activeFaultInjector();
        if (corruptTranslation(cache_, info->cache_entry, info->cache_end,
                               [fi](uint64_t n) { return fi->pick(n); }))
            stats.add("xlate.miscompiles_injected");
    }
    return info;
}

BlockInfo *
Translator::translateColdImpl(uint32_t eip, const SpecContext &spec,
                              MisalignStage stage, bool allow_flush_retry)
{
    Region region = discoverRegion(mem_, eip, analysis_window);
    computeFlagsLiveness(region);
    const BasicBlock *bb = region.find(eip);
    if (!bb || (bb->insns.empty() && !bb->ends_stop))
        return nullptr;

    auto info_holder = std::make_unique<BlockInfo>();
    BlockInfo *info = info_holder.get();
    info->id = static_cast<int32_t>(blocks_.size());
    info->kind = BlockKind::Cold;
    info->entry_eip = eip;
    info->misalign_stage = stage;
    info->insn_count = static_cast<uint32_t>(bb->insns.size());

    // Nothing decodable at the entry itself: the block is one precise
    // guest-fault exit, admitted like any other but never counted or
    // charged as a translation.
    const bool fetch_fault = bb->insns.empty();
    if (fetch_fault) {
        EmitEnv env(options, Phase::Cold, info->id, spec);
        ia32::FaultKind kind = bb->fetch_fault
                                   ? ia32::FaultKind::PageFault
                                   : ia32::FaultKind::InvalidOpcode;
        env.endExit(ipf::ExitReason::GuestFault,
                    (static_cast<int64_t>(eip) << 8) |
                        static_cast<int64_t>(kind));
        if (!finishBlock(env, info, false))
            return nullptr;
    }

    if (!fetch_fault && options.enable_misalign_avoidance &&
        stage == MisalignStage::Detailed) {
        info->misalign_ctr_off = allocProfile(
            (static_cast<uint32_t>(bb->insns.size()) * 2 + 8) * 4);
    }

    if (!fetch_fault && bb->insns.back().op == Op::Jcc)
        info->edge_ctr_off = allocProfile(4);

    // Generate the block; on renaming-pool exhaustion (possible for
    // pathological very long blocks), retry with a shorter prefix —
    // the remainder becomes a fall-through successor block.
    size_t limit = bb->insns.size();
    bool built = fetch_fault;
    uint32_t fxch_emitted = 0;
    while (!built) {
        EmitEnv attempt(options, Phase::Cold, info->id, spec);
        attempt.setMisalignCtrOff(options.enable_misalign_avoidance &&
                                          info->misalign_ctr_off >= 0
                                      ? info->misalign_ctr_off
                                      : 0);
        if (!options.enable_misalign_avoidance) {
            attempt.setAccessPolicy(MisalignPolicy::Plain);
        } else if (stage == MisalignStage::Light ||
                   info->misalign_ctr_off < 0) {
            // Stage 1, or stage 2 whose per-access counters could not
            // be allocated (profile area exhausted): detect-and-exit.
            attempt.setAccessPolicy(MisalignPolicy::DetectExit);
        } else {
            attempt.setAccessPolicy(MisalignPolicy::CountAndAvoid);
        }

        BasicBlock view = *bb;
        bool truncated = limit < bb->insns.size();
        if (truncated) {
            view.insns.resize(limit);
            view.taken = 0;
            view.fall = view.insns.back().next();
            view.ends_indirect = false;
            view.ends_stop = false;
        }
        std::vector<uint32_t> live =
            perInsnLiveFlags(view, view.flags_live_out);

        bool ended = false;
        for (size_t k = 0; k < view.insns.size(); ++k) {
            const Insn &insn = view.insns[k];
            if (ia32::endsBlock(insn))
                break; // handled by emitBlockEnd
            attempt.beginInsn(insn, live[k]);
            if (!translateInsn(attempt, insn)) {
                attempt.emitStatusTail();
                attempt.endExit(ExitReason::GuestFault,
                                (static_cast<int64_t>(insn.addr) << 8) |
                                    static_cast<int64_t>(
                                        ia32::FaultKind::InvalidOpcode));
                ended = true;
                stats.add("xlate.unsupported_insn");
                break;
            }
            attempt.endInsn();
        }
        if (!ended)
            emitBlockEnd(attempt, view, info, false);

        // Head: SMC guard, speculation guards, use-counter.
        attempt.beginHead();
        if (mem_.check(eip, 1, mem::PermWrite)) {
            uint64_t bytes = 0;
            mem_.readPriv(eip, 8, &bytes);
            attempt.emitSmcGuard(eip, bytes, 8);
        }
        attempt.emitFpGuard(&info->guard);
        attempt.emitMmxGuard(&info->guard);
        attempt.emitXmmGuard(&info->guard);
        if (options.enable_hot_phase) {
            if (info->use_ctr_off < 0)
                info->use_ctr_off = allocProfile(4);
            if (info->use_ctr_off >= 0)
                attempt.emitUseCounter(info->use_ctr_off,
                                       options.heat_threshold);
        }

        info->stubs.clear();
        info->recovery.clear();
        if (finishBlock(attempt, info, false)) {
            built = true;
            info->insn_count = static_cast<uint32_t>(view.insns.size());
            fxch_emitted = attempt.fxch_emitted;
        } else {
            if (limit <= 1)
                return nullptr; // even a single instruction failed
            limit /= 2;
            stats.add("xlate.cold_retries");
        }
    }

    if (cache_.overCapacity() && allow_flush_retry) {
        // The finished block itself crossed the cap: flush everything
        // (including it) and rebuild once into the fresh generation.
        stats.add("recover.cache_overflow_retry");
        flushCodeCache();
        return translateColdImpl(eip, spec, stage, false);
    }

    Kind event = Kind::Provenance; // ledger only
    double xlate_cost = 0;
    if (!fetch_fault) {
        stats.add("xlate.cold_blocks");
        stats.add("xlate.cold_insns", info->insn_count);
        stats.add("fxch.emitted", fxch_emitted);
        xlate_cost = cold_xlate_cost_per_insn * (info->insn_count + 1);
        pending_cycles_ += xlate_cost;
        event = Kind::ColdXlate;
    }
    obs_->recordNow(event, {eip, info->id, info->insn_count}, xlate_cost,
                    {{ProvState::Decoded, ProvCause::None, info->id},
                     {ProvState::Cold, ProvCause::None, info->id}});

    cold_map_[eip].push_back({spec, info});
    blocks_.push_back(std::move(info_holder));
    return info;
}

std::vector<const BasicBlock *>
Translator::selectTrace(const Region &region, uint32_t eip, bool *loops)
{
    *loops = false;
    std::vector<const BasicBlock *> trace;
    std::map<uint32_t, bool> visited;
    const BasicBlock *cur = region.find(eip);
    unsigned insns = 0;

    while (cur && trace.size() < max_trace_blocks &&
           insns + cur->insns.size() <= max_trace_insns) {
        trace.push_back(cur);
        visited[cur->start] = true;
        insns += static_cast<unsigned>(cur->insns.size());
        if (cur->ends_indirect || cur->ends_stop || cur->insns.empty())
            break;
        const Insn &last = cur->insns.back();
        uint32_t next = 0;
        if (last.op == Op::Jcc) {
            // Follow the hotter edge using the cold block's counters.
            uint32_t taken_n = 0, use_n = 1;
            auto cit = cold_map_.find(cur->start);
            if (cit != cold_map_.end() && !cit->second.empty()) {
                const BlockInfo *cb = cit->second.front().block;
                if (cb->use_ctr_off >= 0)
                    use_n = std::max(1u, readCounter(cb->use_ctr_off));
                if (cb->edge_ctr_off >= 0)
                    taken_n = readCounter(cb->edge_ctr_off);
            }
            next = (2 * taken_n >= use_n) ? cur->taken : cur->fall;
        } else if (last.op == Op::Jmp || last.op == Op::Call) {
            next = cur->taken;
        } else if (!ia32::endsBlock(last)) {
            next = cur->fall;
        }
        if (!next)
            break;
        if (next == trace.front()->start) {
            *loops = true;
            break;
        }
        if (visited.count(next))
            break;
        cur = region.find(next);
    }
    return trace;
}

bool
Translator::prepareHotInput(uint32_t entry_eip, const SpecContext &spec,
                            HotSessionInput *out)
{
    Region region = discoverRegion(mem_, entry_eip, 32);
    computeFlagsLiveness(region);
    bool loops = false;
    std::vector<const BasicBlock *> trace =
        selectTrace(region, entry_eip, &loops);
    if (trace.empty() || trace[0]->insns.empty())
        return false;

    unsigned trace_insns = 0;
    for (const BasicBlock *b : trace)
        trace_insns += static_cast<unsigned>(b->insns.size());

    // Loop unrolling (section 2: "If a loop is identified, it may be
    // unrolled").
    unsigned copies = 1;
    if (loops && options.enable_unroll &&
        trace_insns * unroll_factor <= max_trace_insns) {
        copies = unroll_factor;
        stats.add("hot.loops_unrolled");
    }

    out->entry_eip = entry_eip;
    out->spec = spec;
    out->loops = loops;
    out->copies = copies;
    out->trace_insns = trace_insns;
    out->trace.clear();
    out->policies.clear();
    out->covered_eips.clear();
    out->smc_guards.clear();

    // Freeze the per-source-block misalignment policy (stage 3) into
    // the input: the static session reads only its input, so it cannot
    // consult misaligned_. Once any misalignment was seen, blocks
    // without one of their own still detect it and exit.
    for (size_t ti = 0; ti < trace.size(); ++ti) {
        const BasicBlock *bb = trace[ti];
        out->trace.push_back(*bb);
        if (!options.enable_misalign_avoidance)
            out->policies.push_back(MisalignPolicy::Plain);
        else if (misaligned_.count(bb->start))
            out->policies.push_back(MisalignPolicy::Avoid);
        else if (!misaligned_.empty())
            out->policies.push_back(MisalignPolicy::DetectExit);
        else
            out->policies.push_back(MisalignPolicy::Plain);
        if (ti >= 1)
            out->covered_eips.push_back(bb->start);
        // A constituent block on a writable page needs its SMC guard
        // carried into the hot trace, or a guest patch to the inlined
        // code would execute stale translations forever. The byte
        // snapshot happens here, at freeze time, so a session never
        // reads live guest memory.
        if (mem_.check(bb->start, 1, mem::PermWrite)) {
            bool dup = false;
            for (const auto &[addr, bytes] : out->smc_guards)
                dup = dup || addr == bb->start;
            if (!dup) {
                uint64_t bytes = 0;
                mem_.readPriv(bb->start, 8, &bytes);
                out->smc_guards.emplace_back(bb->start, bytes);
            }
        }
    }
    return true;
}

void
Translator::runHotSession(const HotSessionInput &in,
                          const Options &options, FaultStream *faults,
                          HotArtifact *out)
{
    out->ok = false;
    out->entry_eip = in.entry_eip;
    out->spec = in.spec;
    out->covered_eips = in.covered_eips;
    out->smc_guards = in.smc_guards;
    if (faults && faults->shouldFire(FaultSite::HotXlateAbort)) {
        // Injected optimization-session abort; the adopting side's
        // bounded retry policy decides whether the block stays eligible.
        out->injected_abort = true;
        return;
    }

    const std::vector<BasicBlock> &trace = in.trace;
    BlockInfo *info = &out->proto;
    info->kind = BlockKind::Hot;
    info->entry_eip = in.entry_eip;
    info->insn_count = in.trace_insns * in.copies;

    // The block id is unknown until commit; publish() re-stamps
    // meta.block_id on every staged instruction (hot code never bakes
    // the id into payloads — only cold use counters do).
    EmitEnv env(options, Phase::Hot, /*block_id=*/-1, in.spec);

    bool aborted = false;
    bool tail_done = false;
    for (unsigned copy = 0; copy < in.copies && !aborted; ++copy) {
        for (size_t ti = 0; ti < trace.size() && !aborted; ++ti) {
            const BasicBlock &bb = trace[ti];

            env.setAccessPolicy(in.policies[ti]);

            std::vector<uint32_t> live =
                perInsnLiveFlags(bb, bb.flags_live_out);
            bool is_last_block =
                (ti + 1 == trace.size()) && (copy + 1 == in.copies);

            for (size_t k = 0; k < bb.insns.size(); ++k) {
                const Insn &insn = bb.insns[k];
                if (ia32::endsBlock(insn)) {
                    // Trace-internal control flow.
                    uint32_t on_trace = 0;
                    if (!is_last_block ||
                        (in.loops && copy + 1 == in.copies)) {
                        on_trace = (ti + 1 < trace.size())
                                       ? trace[ti + 1].start
                                       : trace[0].start;
                    }
                    if (insn.op == Op::Jcc && on_trace) {
                        env.beginInsn(insn, live[k]);
                        bool taken_on_trace = insn.target() == on_trace;
                        uint32_t off_eip = taken_on_trace ? insn.next()
                                                          : insn.target();
                        int16_t p_off = env.condPred(
                            taken_on_trace ? ia32::condNegate(insn.cond)
                                           : insn.cond);
                        env.endInsn();
                        env.sideExit(p_off, off_eip);
                        // Worker-private profile-site tally; merged
                        // into the shared stats at adoption.
                        out->stats.add("prof.hot_cond_probes");
                        continue;
                    }
                    if (insn.op == Op::Call && on_trace &&
                        insn.target() == on_trace) {
                        env.beginInsn(insn, live[k]);
                        Insn push = insn;
                        push.op = Op::Push;
                        push.op_size = 4;
                        push.dst = ia32::Operand::makeImm(insn.next());
                        push.src = ia32::Operand{};
                        translateInsn(env, push);
                        env.endInsn();
                        continue;
                    }
                    if (insn.op == Op::Jmp && on_trace &&
                        insn.target() == on_trace) {
                        continue;
                    }
                    // Trace terminator.
                    if (insn.op == Op::Jcc)
                        out->stats.add("prof.hot_cond_probes");
                    else if (insn.op == Op::JmpInd ||
                             insn.op == Op::CallInd ||
                             insn.op == Op::Ret)
                        out->stats.add("prof.hot_indirect_probes");
                    emitBlockEnd(env, bb, info, true);
                    tail_done = true;
                    break;
                }
                env.beginInsn(insn, live[k]);
                if (!translateInsn(env, insn)) {
                    aborted = true;
                    break;
                }
                env.endInsn();
                if (env.overflowed()) {
                    aborted = true;
                    break;
                }
            }
            if (tail_done)
                break;
        }
        if (tail_done)
            break;
    }
    if (aborted)
        return;

    if (!tail_done) {
        // Trace falls through its end: loop back or link out.
        env.syncAllToHomes();
        env.emitStatusTail();
        bool can_loop = in.loops && env.tosDelta() == 0 &&
                        env.tagSet() == 0 && env.tagClear() == 0 &&
                        env.xmmEntryFormats() == env.xmmExitFormats();
        if (can_loop) {
            Il br = env.mk(IpfOp::Br);
            br.target_il = 0; // body start (post-guard)
            env.emit(br);
            out->stats.add("hot.loopback_edges");
        } else {
            uint32_t next = trace.back().insns.empty()
                ? trace.back().start
                : (in.loops ? trace[0].start
                            : trace.back().insns.back().next());
            env.endBranch(next);
        }
    }

    // Head: guards only (hot blocks carry no use counters).
    env.beginHead();
    for (const auto &[addr, bytes] : in.smc_guards)
        env.emitSmcGuard(addr, bytes, 8);
    env.emitFpGuard(&info->guard);
    env.emitMmxGuard(&info->guard);
    env.emitXmmGuard(&info->guard);

    SchedTally tally;
    if (!finishInto(env, info, out->staging, options, true, &tally)) {
        out->stats.add("sched.failures");
        return;
    }

    out->stats.add("sched.groups", tally.groups);
    out->stats.add("sched.dead_removed", tally.dead_removed);
    out->stats.add("sched.loads_speculated", tally.loads_speculated);
    out->stats.add("fxch.eliminated", env.fxch_eliminated);
    out->stats.add("xlate.hot_trace_blocks",
                   static_cast<uint64_t>(trace.size()) * in.copies);
    if (faults && faults->shouldFire(FaultSite::Miscompile)) {
        // Worker-side miscompile: corrupt the private staging cache
        // before publication, from the per-candidate stream so the
        // victim choice is independent of worker count and scheduling.
        if (corruptTranslation(out->staging, info->cache_entry,
                               info->cache_end,
                               [faults](uint64_t n) {
                                   return faults->pick(n);
                               }))
            out->stats.add("xlate.miscompiles_injected");
    }
    out->ok = true;
}

BlockInfo *
Translator::commitHotArtifact(HotArtifact &art)
{
    auto discard = [&](ProvCause cause) {
        obs_->recordNow(Kind::HotDiscard,
                        {art.entry_eip, static_cast<int64_t>(cause)}, 0,
                        {{ProvState::Discarded, cause, art.cold_block_id}});
    };
    if (!art.from_store) {
        // A worker's session is stamped at its planned completion; a
        // session the guest ran itself, now, when the guest ran it.
        double ts = art.lane ? art.ready_cycles : obs_->now();
        obs_->record({Kind::Provenance, 0, ts, 0, art.entry_eip},
                     {{ProvState::Session,
                       art.ok ? ProvCause::SessionOk
                              : ProvCause::SessionAbort,
                       art.cold_block_id}});
    }

    if (!art.ok) {
        if (art.injected_abort)
            stats.add("hot.aborts_injected");
        else
            stats.add("hot.aborted");
        // A failed session still carries partial counters (e.g. the
        // sched.failures that killed it).
        stats.merge(art.stats);
        discard(ProvCause::SessionAbort);
        return nullptr;
    }

    if (options.sentinel && options.sentinel->isQuarantined(art.entry_eip)) {
        // The sentinel convicted this EIP while the session was in
        // flight (or its quarantine has not been served yet): refuse
        // publication; the interpret gate decides when a retranslation
        // may happen, and it must start cold.
        stats.add("hot.quarantine_blocked");
        stats.merge(art.stats);
        discard(ProvCause::QuarantineBlocked);
        return nullptr;
    }

    BlockInfo *src = blockById(art.cold_block_id);
    if (src && src->invalidated) {
        // The guest invalidated the source block (SMC) while the
        // session was in flight. That path does not bump the cache
        // generation, so check it explicitly: the artifact was built
        // from bytes that no longer exist.
        stats.add("hot.discard_stale");
        discard(ProvCause::SmcWrite);
        return nullptr;
    }

    // Capture the store record while the trace is still as the session
    // left it (the proto is moved into the block table below). It is
    // committed to the store only after publication fully succeeds.
    persist::ArtifactStore *store = options.persist;
    bool record_it =
        store != nullptr && !art.from_store && !store->sealed();
    HotTrace rec;
    if (record_it)
        rec = art;

    int32_t new_id = static_cast<int32_t>(blocks_.size());
    int64_t base = cache_.publish(art.staging, art.generation, new_id);
    if (base < 0) {
        // Staged against a flushed generation: the trace was selected
        // from profile counters and cold blocks that no longer exist.
        stats.add("hot.discard_stale");
        discard(ProvCause::StaleGeneration);
        return nullptr;
    }

    auto info_holder = std::make_unique<BlockInfo>(std::move(art.proto));
    BlockInfo *info = info_holder.get();
    info->id = new_id;
    info->cache_entry += base;
    info->cache_end += base;
    for (ExitStub &s : info->stubs)
        s.cache_index += base;

    if (cache_.overCapacity()) {
        // The trace crossed the cap: flush it together with everything
        // else; the caller treats this as a failed (retryable) session.
        stats.add("recover.cache_overflow_retry");
        flushCodeCache();
        discard(ProvCause::CachePressure);
        return nullptr;
    }

    if (art.from_store) {
        // Adopted, not translated: the xlate.* counters keep meaning
        // "translation work done in this process", so the warm-start
        // reuse rate is persist.hits / (hits + xlate.hot_blocks).
        stats.add("persist.adopted_blocks");
        stats.add("persist.adopted_insns", info->insn_count);
    } else {
        stats.add("xlate.hot_blocks");
        stats.add("xlate.hot_insns", info->insn_count);
        stats.add("hot.commit_points", info->recovery.size());
        stats.add("xlate.hot_ipf_insns",
                  info->cache_end - info->cache_entry);
    }
    // Session-side counters (sched.*, fxch.eliminated,
    // xlate.hot_trace_blocks, hot.loopback_edges) were accumulated into
    // the artifact's private group by the session; fold them in here,
    // at adoption, so the shared group counts only adopted sessions.
    stats.merge(art.stats);

    hot_map_[info->entry_eip].push_back({art.spec, info});

    // Redirect the cold entry so chained predecessors reach the hot
    // version ("retranslates and further optimizes those hotspots").
    auto cit = cold_map_.find(info->entry_eip);
    if (cit != cold_map_.end()) {
        for (Variant &v : cit->second) {
            if (!v.block->invalidated &&
                specMatches(*info, v.spec)) {
                ipf::Instr &entry = cache_.at(v.block->cache_entry);
                entry.op = IpfOp::Br;
                entry.qp = 0;
                entry.target = info->cache_entry;
                entry.exit_reason = ExitReason::None;
                entry.stop = true;
                v.block->hot_state = HotState::Covered;
            }
        }
    }

    // Interior blocks of the trace are covered by this hot version;
    // suppress their own hot registration so overlapping traces are not
    // built for every entry point along the chain.
    for (uint32_t ceip : art.covered_eips) {
        auto it = cold_map_.find(ceip);
        if (it == cold_map_.end())
            continue;
        for (Variant &v : it->second) {
            if (!v.block->invalidated &&
                v.block->hot_state == HotState::Eligible) {
                v.block->hot_state = HotState::Covered;
                disableHeat(v.block);
            }
        }
    }

    blocks_.push_back(std::move(info_holder));
    obs_->recordNow(
        Kind::HotCommit, {info->entry_eip, info->id, info->insn_count}, 0,
        {{art.from_store ? ProvState::Adopted : ProvState::Published,
          art.from_store ? ProvCause::StoreHit : ProvCause::SessionOk,
          info->id}});
    if (record_it) {
        store->record(std::move(rec));
        obs_->recordNow(Kind::Provenance, {info->entry_eip}, 0,
                        {{ProvState::Persisted, ProvCause::StoreRecord,
                          info->id}});
    }
    return info;
}

BlockInfo *
Translator::adoptPersisted(uint32_t eip, const SpecContext &spec)
{
    persist::ArtifactStore *store = options.persist;
    if (!store || !store->hasRecordsAt(eip))
        return nullptr;
    if (options.sentinel && options.sentinel->isQuarantined(eip)) {
        // The interpret gate owns this EIP until its cooldown passes;
        // commitHotArtifact would refuse anyway, so don't churn.
        return nullptr;
    }
    maybeFlushForRoom();

    BlockInfo *match = nullptr;
    for (const HotTrace *rec : store->recordsAt(eip)) {
        // One adoption per record per run. A live previous block means
        // the dispatch spec just doesn't match it (re-publishing would
        // duplicate); an *invalidated* one means SMC convicted the
        // trace after adoption — re-heat it live like any local block,
        // or a guest that patches its code back and forth (jit_rewriter)
        // would loop adopt -> invalidate -> adopt forever.
        if (persist_adopted_.count(rec))
            continue;

        // Re-validate the artifact's SMC-guard windows against live
        // guest memory. The baked guards only catch stores that happen
        // *after* adoption; a mismatch here means the code was patched
        // since the store was written, and publishing the trace would
        // just bounce through SmcDetected -> invalidate -> re-adopt
        // forever.
        bool smc_ok = true;
        for (const auto &[addr, bytes] : rec->smc_guards) {
            uint64_t cur = 0;
            mem_.readPriv(addr, 8, &cur);
            if (cur != bytes) {
                smc_ok = false;
                break;
            }
        }
        if (!smc_ok) {
            store->stats.add("persist.smc_rejected");
            obs_->recordNow(
                Kind::PersistReject,
                {eip, static_cast<int64_t>(ProvCause::SmcMismatch)}, 0,
                {{ProvState::Discarded, ProvCause::SmcMismatch}});
            continue;
        }

        // Wrap the stored trace in an artifact and push it through the
        // normal commit path: generation check, sentinel gate,
        // cold-entry redirection, coverage — identical to a live
        // session's.
        HotArtifact art;
        static_cast<HotTrace &>(art) = *rec;
        art.generation = cache_.generation();
        art.from_store = true;
        art.ok = true;

        BlockInfo *info = commitHotArtifact(art);
        if (!info)
            continue;
        persist_adopted_[rec] = info->id;
        store->stats.add("persist.hits");
        store->stats.add("persist.loaded_blocks");
        // Adoption stalls the guest like a worker's publish would; it
        // is hot-translation latency the store removed, minus the
        // session itself.
        chargeHotStall(hot_publish_cost_per_insn *
                       (info->insn_count + 1));
        obs_->recordNow(Kind::PersistAdopt,
                        {eip, info->insn_count, 0, info->id});
        if (!match && specMatches(*info, spec))
            match = info;
    }
    if (!match)
        store->noteMiss(eip);
    return match;
}

bool
Translator::persistCovers(uint32_t eip) const
{
    return options.persist && options.persist->hasRecordsAt(eip);
}

} // namespace el::core
