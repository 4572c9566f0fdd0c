#include "core/runtime.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <utility>

#include "core/audit.hh"
#include "core/checkpoint.hh"
#include "ia32/decoder.hh"
#include "ia32/flags.hh"
#include "ia32/interp.hh"
#include "ipf/regs.hh"
#include "persist/store.hh"
#include "support/bitfield.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/profile.hh"
#include "support/strfmt.hh"

namespace el::core
{

using ia32::FaultKind;
using ipf::Bucket;
using ipf::ExitReason;
using ipf::StopKind;

namespace
{

/** The two 64-bit halves of XMM register @p i, read from where
 *  representation @p rep keeps them: the GR pair for integer data, FR
 *  values for packed doubles, FR raw bits for packed singles. */
std::pair<uint64_t, uint64_t>
readXmm(ipf::Machine &m, unsigned i, rt::XmmRep rep)
{
    if (rep == rt::XmmInt)
        return {m.gr(ipf::grForXmm(i, 0)), m.gr(ipf::grForXmm(i, 1))};
    if (rep == rt::XmmPd) {
        double d0 =
            static_cast<double>(m.fr(ipf::frForXmm(i, 0)).valView());
        double d1 =
            static_cast<double>(m.fr(ipf::frForXmm(i, 1)).valView());
        uint64_t lo, hi;
        std::memcpy(&lo, &d0, 8);
        std::memcpy(&hi, &d1, 8);
        return {lo, hi};
    }
    return {m.fr(ipf::frForXmm(i, 0)).bitsView(),
            m.fr(ipf::frForXmm(i, 1)).bitsView()};
}

/** Install @p lo / @p hi as XMM register @p i in representation
 *  @p rep (the inverse of readXmm). */
void
writeXmm(ipf::Machine &m, unsigned i, rt::XmmRep rep, uint64_t lo,
         uint64_t hi)
{
    if (rep == rt::XmmInt) {
        m.setGr(ipf::grForXmm(i, 0), lo);
        m.setGr(ipf::grForXmm(i, 1), hi);
    } else if (rep == rt::XmmPd) {
        double d0, d1;
        std::memcpy(&d0, &lo, 8);
        std::memcpy(&d1, &hi, 8);
        m.fr(ipf::frForXmm(i, 0)).setVal(d0);
        m.fr(ipf::frForXmm(i, 1)).setVal(d1);
    } else {
        m.fr(ipf::frForXmm(i, 0)).setBits(lo);
        m.fr(ipf::frForXmm(i, 1)).setBits(hi);
    }
}

} // namespace

Runtime::Runtime(mem::Memory &memory, const btlib::BtOsVtable &vtable,
                 Options options)
    : mem_(memory), btos_(vtable), options_(options),
      inject_scope_(options_.fault)
{
    // The black box exists before anything that can fail: the report
    // of an InitError run still has a (short) flight to show.
    if (options_.flight_recorder) {
        box_ = std::make_unique<trace::Tracer>(
            options_.flight_ring_capacity, trace::View::BlackBox);
        provenance_ = std::make_unique<ProvenanceLedger>();
    }
    if (!btos_.ok()) {
        init_error_ = "BTOS handshake failed: " + btos_.error();
        el_warn("%s", init_error_.c_str());
        return;
    }
    machine_ = std::make_unique<ipf::Machine>(cache_, mem_);
    obs_.chrome = options_.trace;
    obs_.box = box_.get();
    obs_.ledger = provenance_.get();
    obs_.cache = &cache_;
    obs_.clock = [this] { return machine_->totalCycles(); };
    FaultInjector *fi = inject_scope_.get();
    if (fi && obs_.attached()) {
        // Primary-stream fires only, from the runtime-area allocation
        // below on; a pipelined session's injected abort is recorded
        // by recordSession() with the session's planned simulated
        // timeline.
        fi->setFireListener([this, fi](FaultSite site) {
            obs_.recordNow(trace::Kind::FaultInject,
                           {static_cast<int64_t>(site),
                            static_cast<int64_t>(fi->totalFires())});
        });
    }
    // The runtime area is the one allocation we cannot live without;
    // retry through transient BTOS failures before giving up.
    for (uint32_t attempt = 0; rt_base_ == 0; ++attempt) {
        rt_base_ = btos_.allocPages(rt::area_size);
        if (rt_base_ != 0)
            break;
        stats_.add("recover.btos_alloc_fail");
        if (attempt + 1 >= btos_alloc_retries) {
            init_error_ = strfmt("runtime area allocation failed "
                                 "(%u attempts)", attempt + 1);
            el_warn("%s", init_error_.c_str());
            return;
        }
    }
    translator_ =
        std::make_unique<Translator>(options_, mem_, cache_, rt_base_);
    translator_->setObserver(&obs_);

    // The audit's central closure identity needs the per-block books,
    // so --audit forces block tracking on even when no report asked.
    if (options_.collect_block_cycles || options_.audit)
        machine_->setTrackBlockCycles(true);
    sentinel_ = options_.sentinel;
    profiler_ = options_.profiler;
    if (profiler_) {
        machine_->setProfiler(profiler_);
        // Canonical-decode resolver: a pure function of guest memory,
        // independent of the translator's region discovery (whose
        // block splits depend on analysis window and discovery order).
        profiler_->setResolver([this](uint32_t ip) {
            prof::InsnInfo info;
            ia32::Insn insn;
            if (!ia32::decode(mem_, ip, &insn)) {
                info.kind = prof::InsnKind::Stop;
                info.next = ip;
                return info;
            }
            info.next = insn.next();
            switch (insn.op) {
              case ia32::Op::Jcc:
                info.kind = prof::InsnKind::Cond;
                info.target = insn.target();
                break;
              case ia32::Op::Jmp:
                info.kind = prof::InsnKind::Jump;
                info.target = insn.target();
                break;
              case ia32::Op::Call:
                info.kind = prof::InsnKind::CallDirect;
                info.target = insn.target();
                break;
              case ia32::Op::JmpInd:
              case ia32::Op::CallInd:
              case ia32::Op::Ret:
                info.kind = prof::InsnKind::Indirect;
                break;
              default:
                info.kind = ia32::endsBlock(insn)
                                ? prof::InsnKind::Stop
                                : prof::InsnKind::Plain;
                break;
            }
            return info;
        });
    }
    if (sentinel_ && obs_.attached()) {
        // Health transitions: the state machine record (the
        // quarantineBlock path separately notes the artifact-level
        // conviction with its cause).
        sentinel_->setTransitionListener(
            [this](uint32_t eip, sentinel::Health from,
                   sentinel::Health to, bool pinned) {
                ProvState st = ProvState::Quarantined;
                ProvCause cause = ProvCause::None;
                if (pinned) {
                    st = ProvState::Pinned;
                } else if (to == sentinel::Health::Retranslated) {
                    st = ProvState::Retranslated;
                    cause = ProvCause::Cooldown;
                }
                obs_.recordNow(trace::Kind::SentinelShift,
                               {eip, static_cast<int64_t>(from),
                                static_cast<int64_t>(to)},
                               0, {{st, cause}});
            });
    }

    if (options_.translation_threads > 0 && options_.enable_hot_phase)
        hot_pipeline_ = std::make_unique<HotPipeline>(
            options_.translation_threads, options_, fi);

    if (metrics::Registry *m = options_.metrics) {
        // Gauges are closures over live runtime state, read only at
        // emit time; counter groups are exported wholesale under a
        // subsystem prefix. Registration costs nothing per dispatch.
        m->gauge("cycles", [this] { return machine_->totalCycles(); });
        m->gauge("dispatch_lookups", [this] {
            return static_cast<double>(dispatch_lookups_);
        });
        m->gauge("cache_occupancy", [this] {
            return static_cast<double>(cache_.nextIndex());
        });
        m->gauge("cache_generation", [this] {
            return static_cast<double>(cache_.generation());
        });
        m->gauge("hot_queue_depth", [this] {
            return static_cast<double>(hot_queue_.size());
        });
        m->gauge("worker_inflight", [this] {
            return hot_pipeline_
                       ? static_cast<double>(hot_pipeline_->pending().size())
                       : 0.0;
        });
        m->gauge("flight_dropped", [this] {
            return box_ ? static_cast<double>(box_->dropped()) : 0.0;
        });
        if (profiler_)
            m->gauge("profile_events", [this] {
                return static_cast<double>(profiler_->eventCount());
            });
        if (fi)
            m->gauge("fault_fires", [fi] {
                return static_cast<double>(fi->totalFires());
            });
        m->counters("translator", &translator_->stats);
        m->counters("runtime", &stats_);
        if (options_.persist)
            m->counters("persist", &options_.persist->stats);
    }
}

SpecContext
Runtime::currentSpec() const
{
    SpecContext spec;
    uint64_t v = 0;
    mem_.readPriv(rt_base_ + rt::fp_tos, 1, &v);
    spec.tos = static_cast<uint8_t>(v);
    mem_.readPriv(rt_base_ + rt::fp_tag, 1, &v);
    spec.tag = static_cast<uint8_t>(v);
    mem_.readPriv(rt_base_ + rt::mmx_domain, 1, &v);
    spec.mmx_domain = static_cast<uint8_t>(v);
    mem_.readPriv(rt_base_ + rt::xmm_format, 4, &v);
    spec.xmm_format = static_cast<uint32_t>(v);
    return spec;
}

void
Runtime::loadContext(const ia32::State &state)
{
    ipf::Machine &m = *machine_;
    for (unsigned r = 0; r < ia32::NumRegs; ++r)
        m.setGr(ipf::grForGuest(r), state.gpr[r]);
    m.setGr(ipf::gr_rt_base, rt_base_);
    m.setGr(ipf::gr_state, state.eip);
    m.setGr(ipf::gr_flag_cf, state.flag(ia32::FlagCf));
    m.setGr(ipf::gr_flag_pf, state.flag(ia32::FlagPf));
    m.setGr(ipf::gr_flag_af, state.flag(ia32::FlagAf));
    m.setGr(ipf::gr_flag_zf, state.flag(ia32::FlagZf));
    m.setGr(ipf::gr_flag_sf, state.flag(ia32::FlagSf));
    m.setGr(ipf::gr_flag_of, state.flag(ia32::FlagOf));
    m.setGr(ipf::gr_flag_df, state.flag(ia32::FlagDf));

    // x87 stack into the canonical FRs; status bytes into the runtime
    // area (the FP domain is canonical after a context load).
    uint8_t tag = 0;
    for (unsigned k = 0; k < 8; ++k) {
        m.fr(ipf::frForFpSlot(k)).setVal(state.fpu.st[k]);
        if (state.fpu.tag[k] == ia32::FpTag::Valid)
            tag |= 1u << k;
    }
    mem_.writePriv(rt_base_ + rt::fp_tos, 1, state.fpu.top);
    mem_.writePriv(rt_base_ + rt::fp_tag, 1, tag);
    mem_.writePriv(rt_base_ + rt::mmx_domain, 1, 0);

    // XMM registers in the packed-single (raw-bits) representation.
    for (unsigned i = 0; i < 8; ++i) {
        m.fr(ipf::frForXmm(i, 0)).setBits(state.xmm[i].u64(0));
        m.fr(ipf::frForXmm(i, 1)).setBits(state.xmm[i].u64(1));
    }
    mem_.writePriv(rt_base_ + rt::xmm_format, 4,
                   rt::uniformFormatWord(rt::XmmPs));
}

void
Runtime::storeContext(ia32::State *state, uint32_t eip)
{
    ipf::Machine &m = *machine_;
    for (unsigned r = 0; r < ia32::NumRegs; ++r)
        state->gpr[r] = static_cast<uint32_t>(m.gr(ipf::grForGuest(r)));
    state->eip = eip;
    uint32_t fl = ia32::FlagsFixed;
    if (m.gr(ipf::gr_flag_cf) & 1)
        fl |= ia32::FlagCf;
    if (m.gr(ipf::gr_flag_pf) & 1)
        fl |= ia32::FlagPf;
    if (m.gr(ipf::gr_flag_af) & 1)
        fl |= ia32::FlagAf;
    if (m.gr(ipf::gr_flag_zf) & 1)
        fl |= ia32::FlagZf;
    if (m.gr(ipf::gr_flag_sf) & 1)
        fl |= ia32::FlagSf;
    if (m.gr(ipf::gr_flag_of) & 1)
        fl |= ia32::FlagOf;
    if (m.gr(ipf::gr_flag_df) & 1)
        fl |= ia32::FlagDf;
    state->eflags = fl;

    SpecContext spec = currentSpec();
    state->fpu.top = spec.tos & 7;
    for (unsigned k = 0; k < 8; ++k) {
        state->fpu.tag[k] = (spec.tag & (1u << k)) ? ia32::FpTag::Valid
                                                   : ia32::FpTag::Empty;
        if (spec.mmx_domain == 1) {
            // MMX values are current in the GR homes; rebuild the
            // aliased 80-bit patterns.
            uint64_t bits = m.gr(ipf::grForMmx(k));
            uint8_t raw[16] = {};
            std::memcpy(raw, &bits, 8);
            raw[8] = 0xff;
            raw[9] = 0xff;
            long double v;
            std::memcpy(&v, raw, 10);
            state->fpu.st[k] = v;
        } else {
            state->fpu.st[k] = m.fr(ipf::frForFpSlot(k)).valView();
        }
    }

    for (unsigned i = 0; i < 8; ++i) {
        auto [lo, hi] = readXmm(m, i, static_cast<rt::XmmRep>(
            (spec.xmm_format >> rt::formatShift(i)) & 0xf));
        state->xmm[i].setU64(0, lo);
        state->xmm[i].setU64(1, hi);
    }
}

void
Runtime::chargeTranslatorOverhead()
{
    machine_->chargeCycles(Bucket::Overhead,
                           translator_->takePendingOverheadCycles());
    double stall = translator_->takePendingHotStallCycles();
    if (stall > 0)
        stats_.add("hot.stall_cycles", static_cast<uint64_t>(stall));
}

int64_t
Runtime::dispatchEntry(uint32_t eip, bool force_cold, bool fresh_cold)
{
    if (sentinel_ && sentinel_->interpretGate(eip)) {
        // Quarantined EIP: refuse to translate or hand out an entry —
        // even via patched links — so execution funnels back to the
        // top-of-loop gate and its interpreter fallback.
        return -2;
    }
    ++dispatch_lookups_;
    obs_.recordNow(trace::Kind::Dispatch,
                   {eip, static_cast<int64_t>(dispatch_lookups_)});
    SpecContext spec = currentSpec();
    BlockInfo *block = force_cold
        ? translator_->dispatchCold(eip, spec, fresh_cold)
        : translator_->dispatch(eip, spec);
    chargeTranslatorOverhead();
    if (!block)
        return -1;
    return block->cache_entry;
}

uint64_t
Runtime::grAt(const Loc &loc, unsigned guest_reg) const
{
    if (loc.kind == Loc::Kind::Home)
        return machine_->gr(ipf::grForGuest(guest_reg));
    return machine_->gr(static_cast<unsigned>(loc.reg));
}

uint32_t
Runtime::evalFlagRecipe(const FlagRecipe &recipe) const
{
    // Reconstruct the flags this recipe covers from live register
    // values; the caller merges with home-resident flags.
    auto val = [&](const Loc &l) {
        return machine_->gr(static_cast<unsigned>(l.reg));
    };
    uint64_t wide = val(recipe.wide);
    uint32_t a = static_cast<uint32_t>(val(recipe.a));
    uint32_t b = static_cast<uint32_t>(val(recipe.b));
    uint32_t res = static_cast<uint32_t>(val(recipe.res));
    unsigned size = recipe.size;
    uint32_t fl = ia32::flagsZSP(res, size);
    switch (recipe.op) {
      case FlagRecipe::LazyOp::Add:
        if (bit(wide, size * 8))
            fl |= ia32::FlagCf;
        if (((a ^ res) & (b ^ res)) & ia32::signBit(size))
            fl |= ia32::FlagOf;
        if ((a ^ b ^ res) & 0x10)
            fl |= ia32::FlagAf;
        break;
      case FlagRecipe::LazyOp::Sub:
        if (bit(wide, 63))
            fl |= ia32::FlagCf;
        if (((a ^ b) & (a ^ res)) & ia32::signBit(size))
            fl |= ia32::FlagOf;
        if ((a ^ b ^ res) & 0x10)
            fl |= ia32::FlagAf;
        break;
      case FlagRecipe::LazyOp::Logic:
      default:
        break;
    }
    return fl;
}

void
Runtime::reconstructHot(const BlockInfo &block, const ipf::Instr &instr,
                        ia32::State *state)
{
    int32_t cid = instr.meta.commit_id;
    el_assert(cid >= 0 &&
                  cid < static_cast<int32_t>(block.recovery.size()),
              "hot fault without a recovery map (block %d)", block.id);
    const RecoveryMap &map = block.recovery[cid];

    storeContext(state, map.guest_ip);
    for (unsigned r = 0; r < ia32::NumRegs; ++r)
        state->gpr[r] = static_cast<uint32_t>(grAt(map.gpr[r], r));

    if (map.flags.op != FlagRecipe::LazyOp::Homes &&
        map.flags.dirty_mask) {
        uint32_t lazy = evalFlagRecipe(map.flags);
        state->eflags = (state->eflags & ~map.flags.dirty_mask) |
                        (lazy & map.flags.dirty_mask) | ia32::FlagsFixed;
    }

    // FP stack adjustments relative to block entry.
    SpecContext spec = currentSpec(); // entry values (tail not run)
    state->fpu.top = (spec.tos + map.tos_delta) & 7;
    uint8_t tag = static_cast<uint8_t>(
        (spec.tag & ~map.tag_clear) | map.tag_set);
    for (unsigned k = 0; k < 8; ++k) {
        state->fpu.tag[k] = (tag & (1u << k)) ? ia32::FpTag::Valid
                                              : ia32::FpTag::Empty;
    }
    // XMM representations at the fault point.
    for (unsigned i = 0; i < 8; ++i) {
        auto [lo, hi] = readXmm(*machine_, i, static_cast<rt::XmmRep>(
            (map.xmm_formats >> rt::formatShift(i)) & 0xf));
        state->xmm[i].setU64(0, lo);
        state->xmm[i].setU64(1, hi);
    }
}

void
Runtime::recoverGuard(BlockInfo *block, int64_t payload_kind)
{
    machine_->chargeCycles(Bucket::Overhead, guard_recovery_cost);
    fault_overhead_cycles_ += guard_recovery_cost;
    obs_.recordNow(trace::Kind::GuardRecover, {block->id, payload_kind},
                   guard_recovery_cost);
    ipf::Machine &m = *machine_;
    switch (payload_kind) {
      case 0: // TOS mismatch: resolved by block-variant dispatch.
        stats_.add("guard.tos_miss");
        break;
      case 1: // TAG mismatch: variant dispatch rebuilds a block that
              // raises the right stack fault statically.
        stats_.add("guard.tag_miss");
        break;
      case 2: { // MMX/FP domain flip.
        stats_.add("guard.domain_miss");
        uint64_t cur = 0;
        mem_.readPriv(rt_base_ + rt::mmx_domain, 1, &cur);
        if (block->guard.expect_domain == 1 && cur == 0) {
            for (unsigned k = 0; k < 8; ++k)
                m.setGr(ipf::grForMmx(k),
                        m.fr(ipf::frForFpSlot(k)).bitsView());
        } else if (block->guard.expect_domain == 0 && cur == 1) {
            for (unsigned k = 0; k < 8; ++k)
                m.fr(ipf::frForFpSlot(k)).setBits(
                    m.gr(ipf::grForMmx(k)));
        }
        mem_.writePriv(rt_base_ + rt::mmx_domain, 1,
                       block->guard.expect_domain);
        break;
      }
      case 3: { // XMM format conversion.
        stats_.add("guard.format_miss");
        uint64_t wv = 0;
        mem_.readPriv(rt_base_ + rt::xmm_format, 4, &wv);
        uint32_t word = static_cast<uint32_t>(wv);
        for (unsigned i = 0; i < 8; ++i) {
            uint32_t mask = 0xfu << rt::formatShift(i);
            if (!(block->guard.xmm_mask & mask))
                continue;
            rt::XmmRep cur = static_cast<rt::XmmRep>(
                (word >> rt::formatShift(i)) & 0xf);
            rt::XmmRep want = static_cast<rt::XmmRep>(
                (block->guard.xmm_expect >> rt::formatShift(i)) & 0xf);
            if (cur == want)
                continue;
            auto [lo, hi] = readXmm(m, i, cur);
            writeXmm(m, i, want, lo, hi);
            word = (word & ~mask) |
                   (static_cast<uint32_t>(want) << rt::formatShift(i));
        }
        mem_.writePriv(rt_base_ + rt::xmm_format, 4, word);
        break;
      }
      default:
        el_panic("bad guard payload %lld",
                 static_cast<long long>(payload_kind));
    }
}

void
Runtime::noteHotFailure(BlockInfo *block)
{
    stats_.add("recover.hot_abort");
    if (++block->hot_fail_count < hot_retry_limit)
        return; // Still eligible: the use counter re-registers it.
    block->hot_state = HotState::PinnedCold;
    stats_.add("recover.hot_pinned");
    translator_->disableHeat(block);
}

void
Runtime::registerHot(int32_t block_id)
{
    BlockInfo *block = translator_->blockById(block_id);
    if (!block || block->kind != BlockKind::Cold || block->invalidated)
        return;
    if (block->hot_state != HotState::Eligible) {
        // Already covered (or pinned cold): silence the counter.
        translator_->disableHeat(block);
        return;
    }
    if (block->hot_inflight)
        return; // A pipeline session is already running; adoption (or
                // its bounded-retry failure path) resolves this block.
    block->heat_registrations++;
    stats_.add("hot.registrations");
    obs_.recordNow(trace::Kind::HeatRegister,
                   {block->entry_eip, block_id,
                    block->heat_registrations});
    // O(1) dedup: the queued flag replaces the old linear scan over
    // hot_queue_.
    if (!block->hot_queued) {
        block->hot_queued = true;
        hot_queue_.push_back(block_id);
    }

    bool session =
        hot_queue_.size() >= options_.hot_batch ||
        block->heat_registrations >= second_registration;
    if (!session)
        return;

    stats_.add("hot.sessions");
    // Evaluate all candidates at once (section 2's batching).
    std::deque<int32_t> batch;
    batch.swap(hot_queue_);
    for (int32_t id : batch) {
        BlockInfo *cand = translator_->blockById(id);
        if (!cand)
            continue;
        cand->hot_queued = false;
        if (cand->invalidated ||
            cand->hot_state != HotState::Eligible)
            continue;
        SpecContext spec = currentSpec();
        if (hot_pipeline_) {
            enqueueHot(cand, spec);
            continue;
        }
        obs_.recordNow(trace::Kind::Provenance, {cand->entry_eip}, 0,
                       {{ProvState::HotQueued, ProvCause::Heat, cand->id}});
        if (!translator_->translateHot(cand->entry_eip, spec) &&
            !cand->invalidated) {
            // Bounded retry: a transient abort leaves the block
            // eligible so the next threshold hit tries again; repeat
            // offenders are pinned cold (graceful degradation, not an
            // abort loop).
            noteHotFailure(cand);
        }
    }
    chargeTranslatorOverhead();
}

void
Runtime::enqueueHot(BlockInfo *cand, const SpecContext &spec)
{
    if (cand->hot_queued || cand->hot_inflight)
        return; // already queued, or a session is already in flight

    uint64_t generation = cache_.generation();
    HotSessionInput input;
    if (!translator_->prepareHotInput(cand->entry_eip, spec, &input)) {
        // No viable trace — same bounded-retry treatment as a failed
        // synchronous session.
        noteHotFailure(cand);
        return;
    }

    double session_cost = translator_->hotSessionCost(input);
    // The guest only stalls for the snapshot + enqueue; the session's
    // cycles go to a simulated worker. This is the stall the pipeline
    // removes.
    translator_->chargeHotStall(hot_enqueue_cost);

    // Silence the use counter while the session is in flight: it exits
    // at the block head on every execution past the threshold, so an
    // armed counter would stop the guest before the body runs. But the
    // runtime still needs periodic stops — finished sessions are only
    // adopted at dispatch boundaries, and a fully-chained loop would
    // otherwise starve adoption until it terminates. So unlink the
    // block's patched exits instead: every traversal then exits
    // LinkMiss at the block END (forward progress preserved), and the
    // LinkMiss handler refuses to re-patch while hot_inflight is set.
    // Links re-form lazily after adoption. Re-armed on failure.
    cand->hot_inflight = true;
    translator_->disableHeat(cand);
    translator_->unlinkBlockExits(cand);

    double now = machine_->totalCycles();
    uint64_t seq = hot_pipeline_->enqueue(input, cand->id, generation,
                                          now, session_cost);
    stats_.add("hot.enqueued");
    obs_.record({trace::Kind::HotEnqueue, 0, now, hot_enqueue_cost,
                 cand->entry_eip, static_cast<int64_t>(seq), 0, cand->id},
                {{ProvState::HotQueued, ProvCause::Heat, cand->id}});
}

void
Runtime::recordSession(const HotArtifact &art)
{
    if (art.seq < sessions_recorded_)
        return; // quiesce() already recorded it
    sessions_recorded_ = art.seq + 1;
    // Worker-lane events carry the *planned* simulated times from the
    // artifact, never the machine's cycle counter: the plan is what
    // keeps the guest lane's events in place across worker counts.
    uint32_t lane = 1 + art.worker_slot;
    int64_t seq = static_cast<int64_t>(art.seq);
    if (art.injected_abort)
        obs_.record({trace::Kind::WorkerFault, lane, art.start_cycles, 0,
                     static_cast<int64_t>(FaultSite::HotXlateAbort), seq});
    obs_.record({trace::Kind::WorkerSession, lane, art.start_cycles,
                 art.ready_cycles - art.start_cycles, art.entry_eip, seq,
                 art.ok ? 1 : 0, art.worker_slot});
}

void
Runtime::quiesce()
{
    if (hot_pipeline_)
        for (const HotArtifact &art : hot_pipeline_->pending())
            recordSession(art);
}

void
Runtime::adoptHotResults()
{
    if (!hot_pipeline_ || hot_pipeline_->pending().empty())
        return;
    std::vector<HotArtifact> arts =
        hot_pipeline_->drain(machine_->totalCycles());
    for (HotArtifact &art : arts) {
        recordSession(art);
        BlockInfo *cold = translator_->blockById(art.cold_block_id);
        if (cold)
            cold->hot_inflight = false;
        BlockInfo *hot = translator_->commitHotArtifact(art);
        if (hot) {
            stats_.add("hot.adopted");
            // Publication (relocation + linking) is the only part the
            // guest waits for.
            double publish_cost = hot_publish_cost_per_insn *
                                  (hot->insn_count + 1);
            translator_->chargeHotStall(publish_cost);
            int64_t seq = static_cast<int64_t>(art.seq);
            obs_.recordNow(trace::Kind::HotPublish,
                           {hot->entry_eip, hot->id, seq,
                            art.worker_slot},
                           publish_cost);
            // How long the finished artifact waited for a block
            // re-entry boundary after its (planned) completion.
            double stall = obs_.now() - art.ready_cycles;
            obs_.recordNow(trace::Kind::AdoptionStall,
                           {seq, static_cast<int64_t>(stall > 0 ? stall
                                                                : 0)});
        } else if (cold && !cold->invalidated &&
                   cold->hot_state == HotState::Eligible) {
            // Failed or discarded session (a stale-generation discard
            // leaves the cold block invalidated and skips this):
            // bounded retry, and re-arm the counter silenced at
            // enqueue so the block can register again.
            noteHotFailure(cold);
            if (cold->hot_state == HotState::Eligible)
                translator_->enableHeat(cold);
        }
    }
    chargeTranslatorOverhead();
}

bool
Runtime::interpretFallback(ia32::State *state, RunResult *result,
                           uint32_t *next_eip)
{
    // Translation aborted (injected or otherwise unrecoverable): make
    // forward progress under the reference interpreter so the guest
    // never notices, then hand back to translated execution.
    storeContext(state, *next_eip);
    ia32::Interpreter interp(*state, mem_);
    for (uint32_t n = 0; n < interp_fallback_insns; ++n) {
        ia32::StepResult step = interp.step();
        stats_.add("recover.interp_steps");
        if (step.kind == ia32::StepKind::Ok)
            continue;
        if (step.kind == ia32::StepKind::Halt) {
            result->kind = RunResult::Kind::Exit;
            result->exit_code = 0;
            return false;
        }
        if (step.kind == ia32::StepKind::Int) {
            btlib::SyscallResult res =
                btos_.systemService(*state, step.vector);
            if (res.exit) {
                result->kind = RunResult::Kind::Exit;
                result->exit_code = res.exit_code;
                return false;
            }
            continue;
        }
        // step.kind == Fault.
        if (step.fault.injected) {
            // A storm-injected transient: architecturally nothing
            // happened, so simply retry the instruction.
            stats_.add("recover.storm_fault");
            continue;
        }
        if (!deliverFault(state, step.fault, result))
            return false;
        // The handler frame is in *state now; keep stepping from it.
    }
    loadContext(*state);
    *next_eip = state->eip;
    if (profiler_)
        profiler_->resync(*next_eip);
    return true;
}

namespace
{

/** Net effect of a journal: last byte written per address. */
std::map<uint64_t, uint8_t>
journalFinals(const mem::WriteJournal &j)
{
    std::map<uint64_t, uint8_t> m;
    for (const mem::WriteJournal::Entry &e : j.entries)
        m[e.addr] = e.new_byte; // forward order: last write wins
    return m;
}

/** Pre-region byte per address touched by a journal. */
std::map<uint64_t, uint8_t>
journalOrigins(const mem::WriteJournal &j)
{
    std::map<uint64_t, uint8_t> m;
    for (const mem::WriteJournal::Entry &e : j.entries)
        m.emplace(e.addr, e.old_byte); // first record is the original
    return m;
}

/**
 * Compare the net memory effect of two journals recorded from the same
 * starting image: for every address either touched, the final byte must
 * agree (an address only one journal touched counts as final == its
 * pre-region value on the other side).
 */
bool
journalsMatch(const mem::WriteJournal &a, const mem::WriteJournal &b)
{
    std::map<uint64_t, uint8_t> fa = journalFinals(a);
    std::map<uint64_t, uint8_t> fb = journalFinals(b);
    std::map<uint64_t, uint8_t> oa = journalOrigins(a);
    std::map<uint64_t, uint8_t> ob = journalOrigins(b);
    auto lookup = [](const std::map<uint64_t, uint8_t> &m, uint64_t k,
                     uint8_t dflt) {
        auto it = m.find(k);
        return it == m.end() ? dflt : it->second;
    };
    for (const auto &[addr, va] : fa) {
        if (lookup(fb, addr, lookup(ob, addr, oa.at(addr))) != va)
            return false;
    }
    for (const auto &[addr, vb] : fb) {
        if (lookup(fa, addr, lookup(oa, addr, ob.at(addr))) != vb)
            return false;
    }
    return true;
}

} // namespace

void
Runtime::armCheckpoint(uint32_t eip)
{
    storeContext(&ck_state_, eip);
    ck_eip_ = eip;
    journal_.clear();
    // Runtime-area stores (use counters, status bytes, lookup entries)
    // are translator bookkeeping, not guest-architectural effect; the
    // interpreter oracle never performs them.
    journal_.exclude_lo = rt_base_;
    journal_.exclude_hi = rt_base_ + rt::area_size;
    mem_.setWriteJournal(&journal_);
    visit_log_.clear();
    machine_->setVisitLog(&visit_log_);
    ck_armed_ = true;
    stats_.add("sentinel.checked");
}

void
Runtime::discardCheckpoint(const char *why_stat)
{
    mem_.setWriteJournal(nullptr);
    machine_->setVisitLog(nullptr);
    ck_armed_ = false;
    stats_.add(why_stat);
}

bool
Runtime::replayMatches(RegionEnd kind, const ia32::State &mstate,
                       uint8_t vector, const ia32::Fault *fault,
                       mem::WriteJournal *replay_journal)
{
    // The replay must re-execute the recorded history exactly: storm
    // injection must neither perturb it nor consume injector budget.
    FaultSuppressScope suppress;
    replay_journal->clear();
    replay_journal->exclude_lo = journal_.exclude_lo;
    replay_journal->exclude_hi = journal_.exclude_hi;
    mem_.setWriteJournal(replay_journal);

    ia32::State s = ck_state_;
    ia32::Interpreter interp(s, mem_);
    bool matched = false;
    // EFlags elimination leaves architecturally-dead flags
    // unmaterialized at region boundaries; the oracle computes every
    // flag exactly. Comparing them would flag every eliminated flag as
    // a divergence, so the arbitration runs flags-blind: GPRs, control
    // flow, FPU/XMM state and the memory journal still convict any
    // consequential miscompile (a flag-only corruption steers a branch
    // and surfaces as an eip/GPR divergence within a region or two).
    auto archMatches = [](const ia32::State &a, const ia32::State &b) {
        ia32::State t = a;
        t.eflags = b.eflags;
        return t.equalsArch(b);
    };
    for (uint64_t n = 0;; ++n) {
        if (kind == RegionEnd::Boundary && s.eip == mstate.eip &&
            archMatches(s, mstate) &&
            journalsMatch(journal_, *replay_journal)) {
            // The oracle reached the region's claimed end with the
            // machine's exact state and net memory effect.
            matched = true;
            break;
        }
        if (n >= sentinel::replay_budget)
            break; // budget exhausted without a match: divergence
        ia32::StepResult rs = interp.step();
        if (rs.kind == ia32::StepKind::Ok)
            continue;
        if (rs.kind == ia32::StepKind::Int) {
            matched = kind == RegionEnd::Syscall &&
                      rs.vector == vector && s.eip == mstate.eip &&
                      archMatches(s, mstate) &&
                      journalsMatch(journal_, *replay_journal);
            break;
        }
        if (rs.kind == ia32::StepKind::Fault) {
            matched = kind == RegionEnd::Fault && fault &&
                      rs.fault.kind == fault->kind &&
                      rs.fault.eip == fault->eip &&
                      (rs.fault.kind != ia32::FaultKind::PageFault ||
                       rs.fault.addr == fault->addr) &&
                      s.eip == mstate.eip && archMatches(s, mstate) &&
                      journalsMatch(journal_, *replay_journal);
            break;
        }
        // Halt inside a region that claimed to end elsewhere.
        break;
    }
    mem_.setWriteJournal(nullptr);
    return matched;
}

bool
Runtime::finishRegionCheck(RegionEnd kind, const ia32::State &mstate,
                           uint8_t vector, const ia32::Fault *fault)
{
    // Detach first: the replay arms its own journal, and divergence
    // handling must not journal its own repairs.
    mem_.setWriteJournal(nullptr);
    machine_->setVisitLog(nullptr);
    ck_armed_ = false;

    // Rewind memory to the checkpoint image; the oracle re-executes the
    // region's writes from there.
    mem_.undoJournal(journal_);

    mem::WriteJournal replay_journal;
    bool ok =
        replayMatches(kind, mstate, vector, fault, &replay_journal);

    // Unwind the oracle's writes. On a pass the machine's own image is
    // reinstated byte-exactly (the digest proved the net effects equal,
    // but the machine's execution is the canonical one); on a
    // divergence memory stays at the checkpoint for the rollback.
    mem_.undoJournal(replay_journal);
    if (ok) {
        mem_.redoJournal(journal_);
        stats_.add("sentinel.passed");
        return true;
    }

    stats_.add("sentinel.divergence");
    quarantineRegion(mstate.eip);
    loadContext(ck_state_);
    if (profiler_)
        profiler_->resync(ck_eip_);
    obs_.recordNow(trace::Kind::Divergence, {ck_eip_, mstate.eip});
    return false;
}

void
Runtime::quarantineRegion(uint32_t end_eip)
{
    sentinel::DivergenceInfo info;
    info.checkpoint_eip = ck_eip_;
    info.region_index = sentinel_->regionsSeen();
    uint32_t lo = ~0u, hi = 0;
    std::set<int32_t> seen;
    for (int32_t id : visit_log_) {
        if (!seen.insert(id).second)
            continue;
        BlockInfo *b = translator_->blockById(id);
        if (!b)
            continue;
        if (info.first_block < 0)
            info.first_block = id;
        // The offending IA-32 range: every guest ip the quarantined
        // artifacts were translated from.
        lo = std::min(lo, b->entry_eip);
        hi = std::max(hi, b->entry_eip);
        for (int64_t i = b->cache_entry;
             i >= 0 && i < b->cache_end; ++i) {
            uint32_t ip = cache_.at(i).meta.ia32_ip;
            if (ip) {
                lo = std::min(lo, ip);
                hi = std::max(hi, ip);
            }
        }
        sentinel_->noteDivergence(b->entry_eip);
        translator_->quarantineBlock(b);
    }
    if (seen.empty() || !sentinel_->record(ck_eip_)) {
        // Degenerate region (empty or overflowed visit log): at least
        // gate the checkpoint EIP so the resume runs on the oracle.
        sentinel_->noteDivergence(ck_eip_);
    }
    if (visit_log_.dropped() > 0)
        stats_.set("sentinel.visit_overflow", visit_log_.dropped());
    info.boundary_eip = end_eip;
    info.ip_lo = lo == ~0u ? ck_eip_ : lo;
    info.ip_hi = hi == 0 ? ck_eip_ : hi;
    sentinel_->logDivergence(info);
}

bool
Runtime::deliverFault(ia32::State *state, const ia32::Fault &fault,
                      RunResult *result)
{
    stats_.add("faults.delivered");
    obs_.recordNow(trace::Kind::GuestFault,
                   {fault.eip, static_cast<int64_t>(fault.kind)});
    btlib::ExceptionDisposition disp =
        btos_.deliverException(*state, fault);
    if (disp == btlib::ExceptionDisposition::Terminate) {
        result->kind = RunResult::Kind::Fault;
        result->fault = fault;
        return false;
    }
    loadContext(*state);
    // The fault abandoned whatever block was mid-flight; re-anchor the
    // profiler's control-flow cursor at the handler entry.
    if (profiler_)
        profiler_->resync(state->eip);
    return true;
}

RunResult
Runtime::run(ia32::State &state)
{
    RunResult result;
    if (!initOk()) {
        result.kind = RunResult::Kind::InitError;
        return result;
    }

    loadContext(state);
    uint32_t next_eip = state.eip;
    bool force_cold_once = false;
    bool fresh_cold_once = false;
    if (profiler_)
        profiler_->resync(next_eip);

    for (;;) {
        if (machine_->totalCycles() >=
            static_cast<double>(options_.max_run_cycles)) {
            if (ck_armed_)
                discardCheckpoint("sentinel.skipped_limit");
            result.kind = RunResult::Kind::CycleLimit;
            storeContext(&state, next_eip);
            return result;
        }

        if (ck_armed_) {
            // The checked region ended at an ordinary dispatch
            // boundary: verify before any of its effects propagate.
            ia32::State mstate;
            storeContext(&mstate, next_eip);
            if (!finishRegionCheck(RegionEnd::Boundary, mstate, 0,
                                   nullptr)) {
                next_eip = ck_eip_;
                force_cold_once = false;
                fresh_cold_once = false;
            }
        }

        if (sentinel_ && sentinel_->interpretGate(next_eip)) {
            // Quarantined artifact: serve this dispatch under the
            // interpreter oracle and count down its quarantine.
            stats_.add("sentinel.gated_dispatches");
            sentinel_->tickCooldown(next_eip);
            force_cold_once = false;
            fresh_cold_once = false;
            if (!interpretFallback(&state, &result, &next_eip))
                return result;
            continue;
        }

        // Block re-entry boundary: the only place finished pipeline
        // sessions become visible to the guest.
        adoptHotResults();
        if (faultInjected(FaultSite::AcctSkew)) {
            // Silent accounting corruption: cycles slipped into a
            // bucket outside the charging paths, plus a phantom
            // translation count. Guest execution is untouched — only
            // the books lie, which is what the audit layer must
            // catch (closure identity + flight cross-count).
            machine_->stats().cycles[static_cast<size_t>(
                ipf::Bucket::Overhead)] += 1000.0;
            translator_->stats.add("xlate.cold_blocks");
            stats_.add("audit.skew_injected");
        }
        if (options_.audit && machine_->totalCycles() >= next_audit_) {
            audit_findings_.merge(auditClosure(*this));
            while (next_audit_ <= machine_->totalCycles())
                next_audit_ += static_cast<double>(audit_period);
        }
        if (options_.metrics)
            options_.metrics->maybeEmit(machine_->totalCycles());
        if (options_.persist && options_.persist->logDirty()) {
            // CrashAdopt models dying between the in-memory adoption
            // above and the durable store append below — the window
            // where a kill loses the just-adopted artifacts (they are
            // re-translated on resume; correctness is unaffected).
            if (faultInjected(FaultSite::CrashAdopt))
                crashNow(FaultSite::CrashAdopt);
            options_.persist->flushLog();
        }
        if (options_.checkpointer)
            options_.checkpointer->maybeCheckpoint(*this, next_eip);

        int64_t entry = dispatchEntry(next_eip, force_cold_once,
                                      fresh_cold_once);
        force_cold_once = false;
        fresh_cold_once = false;
        if (entry < 0) {
            if (translator_->takeInjectedAbort()) {
                // Injected translation abort: fall back to the
                // interpreter for a few instructions and retry.
                stats_.add("recover.xlate_abort");
                if (!interpretFallback(&state, &result, &next_eip))
                    return result;
                continue;
            }
            // Undecodable code at next_eip.
            ia32::Fault fault;
            fault.kind = FaultKind::InvalidOpcode;
            fault.eip = next_eip;
            storeContext(&state, next_eip);
            if (!deliverFault(&state, fault, &result))
                return result;
            next_eip = state.eip;
            continue;
        }

        if (sentinel_ && !ck_armed_ && sentinel_->shouldCheck())
            armCheckpoint(next_eip);

        double remaining = static_cast<double>(options_.max_run_cycles) -
                           machine_->totalCycles();
        ipf::StopInfo stop = machine_->run(
            entry, remaining < 1 ? 1
                                 : static_cast<uint64_t>(remaining));
        machine_->chargeCycles(Bucket::Overhead, runtime_entry_cost);

        if (stop.kind == StopKind::CycleLimit) {
            if (ck_armed_)
                discardCheckpoint("sentinel.skipped_limit");
            result.kind = RunResult::Kind::CycleLimit;
            storeContext(&state, next_eip);
            return result;
        }
        el_assert(stop.kind != StopKind::BadIp, "machine left the cache");

        // Copy, not reference: dispatch below may flush the cache,
        // which would leave a reference dangling.
        const ipf::Instr instr = cache_.at(stop.instr_index);
        BlockInfo *block = translator_->blockById(instr.meta.block_id);

        if (stop.kind == StopKind::MemFault) {
            ia32::Fault fault;
            fault.kind = FaultKind::PageFault;
            fault.addr = static_cast<uint32_t>(stop.fault_addr);
            fault.is_write = stop.fault_is_write;
            if (block && instr.meta.commit_id >= 0 &&
                instr.meta.commit_id <
                    static_cast<int32_t>(block->recovery.size())) {
                reconstructHot(*block, instr, &state);
                fault.eip = state.eip;
            } else {
                uint32_t eip =
                    static_cast<uint32_t>(machine_->gr(ipf::gr_state));
                storeContext(&state, eip);
                fault.eip = eip;
            }
            stats_.add("faults.memory");
            if (ck_armed_ &&
                !finishRegionCheck(RegionEnd::Fault, state, 0,
                                   &fault)) {
                // The "fault" was an artifact of a bad translation
                // (e.g. a corrupted address computation): it must never
                // reach the guest. Rolled back; resume at checkpoint.
                next_eip = ck_eip_;
                continue;
            }
            if (!deliverFault(&state, fault, &result))
                return result;
            next_eip = state.eip;
            continue;
        }

        switch (stop.reason) {
          case ExitReason::LinkMiss: {
            uint32_t target = static_cast<uint32_t>(stop.payload);
            stats_.add("exits.link_miss");
            // Any translation below may flush the cache; never patch
            // an exit index from a dead generation.
            uint64_t gen = cache_.generation();
            // Hot-to-hot chaining: when hot code falls off its trace
            // tail, extend the hot tiling at the target immediately
            // instead of decaying into cold execution.
            if (block && block->kind == BlockKind::Hot &&
                options_.enable_hot_phase &&
                !translator_->persistCovers(target) &&
                !(sentinel_ && sentinel_->interpretGate(target))) {
                // (A store-covered target is excluded: dispatchEntry
                // below adopts the persisted trace, so spending a local
                // hot session on it would only duplicate work.)
                SpecContext spec = currentSpec();
                BlockInfo *cold =
                    translator_->dispatchCold(target, spec, false);
                if (cold && cold->kind == BlockKind::Cold &&
                    cold->hot_state == HotState::Eligible) {
                    if (hot_pipeline_) {
                        enqueueHot(cold, spec);
                    } else if (translator_->translateHot(target,
                                                         spec)) {
                        stats_.add("hot.chained");
                    } else if (!cold->invalidated) {
                        noteHotFailure(cold);
                    }
                    chargeTranslatorOverhead();
                }
            }
            int64_t tentry = dispatchEntry(target, false);
            // While a hot session for the exiting block is in flight
            // its exits stay unlinked — every traversal must keep
            // stopping here so the finished artifact can be adopted.
            if (tentry >= 0 && options_.enable_chaining &&
                !(block && block->hot_inflight) &&
                cache_.patchToBranchChecked(stop.instr_index, tentry,
                                            gen)) {
                stats_.add("links.patched");
                obs_.recordNow(trace::Kind::ExitRelink,
                               {target, instr.meta.block_id});
            }
            next_eip = target;
            break;
          }

          case ExitReason::IndirectMiss: {
            uint32_t target = static_cast<uint32_t>(stop.payload);
            stats_.add("exits.indirect_miss");
            int64_t tentry = dispatchEntry(target, false);
            if (tentry >= 0) {
                // Install the fast-lookup entry.
                uint64_t h = bits(target, 2, 10);
                uint64_t eaddr =
                    rt_base_ + rt::lookup_table + h * 16;
                mem_.writePriv(eaddr, 8, target);
                mem_.writePriv(eaddr + 8, 8,
                               static_cast<uint64_t>(tentry));
            }
            next_eip = target;
            break;
          }

          case ExitReason::RegisterHot: {
            stats_.add("exits.register_hot");
            registerHot(static_cast<int32_t>(stop.payload));
            // Resume the block that registered (possibly now hot).
            next_eip = block ? block->entry_eip : next_eip;
            break;
          }

          case ExitReason::SyscallGate: {
            stats_.add("exits.syscall");
            uint8_t vector =
                static_cast<uint8_t>(stop.payload >> 32);
            uint32_t ret_eip =
                static_cast<uint32_t>(stop.payload & 0xffffffff);
            storeContext(&state, ret_eip);
            if (ck_armed_ &&
                !finishRegionCheck(RegionEnd::Syscall, state, vector,
                                   nullptr)) {
                // Never let a region that corrupted state reach the
                // OS: the syscall is not serviced; resume from the
                // checkpoint on the oracle.
                next_eip = ck_eip_;
                break;
            }
            btlib::SyscallResult res =
                btos_.systemService(state, vector);
            if (res.exit) {
                result.kind = RunResult::Kind::Exit;
                result.exit_code = res.exit_code;
                return result;
            }
            loadContext(state);
            next_eip = state.eip;
            // The machine's SyscallGate probe invalidated the cursor;
            // execution architecturally resumes at the return EIP.
            if (profiler_)
                profiler_->resync(next_eip);
            break;
          }

          case ExitReason::Misaligned: {
            stats_.add("exits.misaligned");
            el_assert(block, "misalignment exit without a block");
            if (block->kind == BlockKind::Cold) {
                uint32_t resume = instr.meta.ia32_ip;
                translator_->recordMisalignment(block->entry_eip);
                if (block->misalign_stage == MisalignStage::Light) {
                    // Stage 1 -> 2: regenerate with detection+avoidance.
                    translator_->regenerateForMisalignment(
                        block->entry_eip, currentSpec());
                }
                next_eip = resume;
            } else {
                // Stage 3: discard the hot block, remember to avoid.
                translator_->recordMisalignment(instr.meta.ia32_ip);
                translator_->discardHotBlock(block);
                next_eip = static_cast<uint32_t>(stop.payload);
            }
            chargeTranslatorOverhead();
            break;
          }

          case ExitReason::GuardFail: {
            stats_.add("exits.guard_fail");
            el_assert(block, "guard exit without a block");
            recoverGuard(block, stop.payload);
            next_eip = block->entry_eip;
            break;
          }

          case ExitReason::SmcDetected: {
            stats_.add("exits.smc");
            // Payload: (guard window width << 32) | guarded address.
            // Invalidate exactly the guarded window, not a whole page.
            uint32_t addr =
                static_cast<uint32_t>(stop.payload & 0xffffffff);
            uint32_t width = static_cast<uint32_t>(stop.payload >> 32);
            translator_->invalidateRange(addr, width ? width : 4096);
            next_eip = block ? block->entry_eip : addr;
            if (profiler_) {
                // Canonical decodes over the written range are stale.
                // The SMC guard fires at the block head, before any
                // probe, so re-anchoring at the re-execution point
                // keeps the event stream architectural.
                profiler_->invalidateCode(addr, width ? width : 4096);
                profiler_->resync(next_eip);
            }
            break;
          }

          case ExitReason::Resync: {
            stats_.add("exits.resync");
            // Speculation failed or a block was invalidated: re-execute
            // the region cold, precisely.
            next_eip = static_cast<uint32_t>(stop.payload);
            force_cold_once = true;
            fresh_cold_once = true;
            break;
          }

          case ExitReason::GuestFault: {
            stats_.add("exits.guest_fault");
            ia32::Fault fault;
            fault.kind =
                static_cast<FaultKind>(stop.payload & 0xff);
            fault.eip = static_cast<uint32_t>(stop.payload >> 8);
            if (fault.kind == FaultKind::PageFault)
                fault.addr = fault.eip; // instruction-fetch fault
            if (block && instr.meta.commit_id >= 0 &&
                instr.meta.commit_id <
                    static_cast<int32_t>(block->recovery.size())) {
                reconstructHot(*block, instr, &state);
                state.eip = fault.eip;
            } else {
                storeContext(&state, fault.eip);
            }
            if (ck_armed_ &&
                !finishRegionCheck(RegionEnd::Fault, state, 0,
                                   &fault)) {
                next_eip = ck_eip_;
                break;
            }
            if (!deliverFault(&state, fault, &result))
                return result;
            next_eip = state.eip;
            break;
          }

          case ExitReason::Breakpoint: {
            stats_.add("exits.breakpoint");
            if (ck_armed_)
                discardCheckpoint("sentinel.skipped_breakpoint");
            ia32::Fault fault;
            fault.kind = FaultKind::Breakpoint;
            fault.eip = static_cast<uint32_t>(stop.payload);
            storeContext(&state, fault.eip);
            if (!deliverFault(&state, fault, &result))
                return result;
            next_eip = state.eip;
            break;
          }

          case ExitReason::Halt: {
            stats_.add("exits.halt");
            if (ck_armed_)
                discardCheckpoint("sentinel.skipped_halt");
            storeContext(&state,
                         static_cast<uint32_t>(stop.payload));
            result.kind = RunResult::Kind::Exit;
            result.exit_code = 0;
            return result;
          }

          default:
            el_panic("unhandled exit reason %u",
                     static_cast<unsigned>(stop.reason));
        }
    }
}

} // namespace el::core
