/**
 * @file
 * Per-layer host-time replays. A finished run's translation blocks are
 * translated again, in their original order, by a fresh Runtime over a
 * freshly loaded guest, with a span around each public call: decode,
 * cold translation, hot trace selection, the hot session (emit and
 * schedule), publication into a full-size code cache, and commit.
 */

#include "bench.hh"
#include "core/layout.hh"
#include "core/translator.hh"
#include "harness/exec.hh"
#include "ia32/decoder.hh"
#include "support/logging.hh"

namespace perfbench
{

using namespace el;

void
ReplayTotals::add(const ReplayTotals &o)
{
    decode_s += o.decode_s;
    decode_insns += o.decode_insns;
    cold_s += o.cold_s;
    cold_insns += o.cold_insns;
    select_s += o.select_s;
    session_s += o.session_s;
    hot_insns += o.hot_insns;
    commit_s += o.commit_s;
    publish_s += o.publish_s;
    hot_calls += o.hot_calls;
}

namespace
{

/** The entry conditions a block was translated for, from its guards. */
core::SpecContext
specOf(const core::BlockInfo &b)
{
    core::SpecContext s;
    if (b.guard.checks_fp) {
        s.tos = b.guard.expect_tos;
        s.tag = b.guard.need_valid;
    }
    if (b.guard.checks_mmx)
        s.mmx_domain = b.guard.expect_domain;
    if (b.guard.checks_xmm)
        s.xmm_format = (s.xmm_format & ~b.guard.xmm_mask) |
                       (b.guard.xmm_expect & b.guard.xmm_mask);
    return s;
}

/** A fresh guest plus Runtime, as a run starts. */
struct Fresh
{
    mem::Memory memory;
    std::unique_ptr<btlib::SimOsBase> os;
    std::unique_ptr<core::Runtime> runtime;

    explicit Fresh(const Program &p)
    {
        guest::load(p.workload.image, memory);
        os = harness::makeOs(p.workload.params.abi, memory);
        runtime = std::make_unique<core::Runtime>(memory, os->vtable(),
                                                  core::Options{});
        el_assert(runtime->initOk(), "replay runtime init failed");
    }
};

} // namespace

ReplayTotals
replayTranslations(const Program &p, int index, Live &ref, Spans &spans)
{
    auto replay_scope = spans.scope("bench.replay", index);
    ReplayTotals t;
    core::Runtime &ref_rt = *ref.runtime;
    const auto &blocks = ref_rt.translator().allBlocks();
    Fresh fresh(p);
    el_assert(fresh.runtime->rtBase() == ref_rt.rtBase(),
              "replay runtime area moved");
    core::Translator &tr = fresh.runtime->translator();

    // Decode: the instructions of every cold block, as fetched from
    // guest memory.
    {
        auto sc = spans.scope("ia32.decode", index);
        Clock::time_point t0 = Clock::now();
        for (const auto &b : blocks) {
            if (b->kind != core::BlockKind::Cold)
                continue;
            uint32_t addr = b->entry_eip;
            for (uint32_t k = 0; k < b->insn_count; ++k) {
                ia32::Insn insn;
                if (!ia32::decode(fresh.memory, addr, &insn))
                    break;
                addr += insn.len;
                ++t.decode_insns;
            }
        }
        t.decode_s = secondsSince(t0);
    }

    // Cold translation, in the reference run's order.
    for (const auto &b : blocks) {
        if (b->kind != core::BlockKind::Cold)
            continue;
        auto sc = spans.scope("core.translate_cold", index);
        Clock::time_point t0 = Clock::now();
        core::BlockInfo *info =
            tr.translateCold(b->entry_eip, specOf(*b), b->misalign_stage);
        t.cold_s += secondsSince(t0);
        if (info)
            t.cold_insns += info->insn_count;
    }

    // Trace selection reads the profile counters: give it the reference
    // run's final counts (the replay allocated them at the same
    // offsets, in the same order).
    for (uint64_t off = core::rt::profile_base; off < core::rt::area_size;
         off += 8) {
        uint64_t v = 0;
        ref.memory->readPriv(ref_rt.rtBase() + off, 8, &v);
        fresh.memory.writePriv(fresh.runtime->rtBase() + off, 8, v);
    }

    // A cache filled to the reference run's size by one publication, so
    // each replayed publication starts from the state a publication
    // leaves behind, as the hot batches of a real run do.
    ipf::CodeCache full;
    {
        ipf::CodeCache fill;
        ipf::Instr nop;
        nop.op = ipf::IpfOp::Nop;
        for (size_t i = 0; i < ref_rt.codeCache().size(); ++i)
            fill.emit(nop);
        full.publish(fill, full.generation(), -1);
    }

    for (const auto &b : blocks) {
        if (b->kind != core::BlockKind::Hot || b->loaded_from_store)
            continue;
        core::HotSessionInput input;
        bool selected;
        {
            auto sc = spans.scope("core.prepare_hot", index);
            Clock::time_point t0 = Clock::now();
            selected = tr.prepareHotInput(b->entry_eip, specOf(*b), &input);
            t.select_s += secondsSince(t0);
        }
        if (!selected)
            continue;
        core::HotArtifact art;
        art.generation = fresh.runtime->codeCache().generation();
        {
            auto sc = spans.scope("core.hot_session", index);
            Clock::time_point t0 = Clock::now();
            core::Translator::runHotSession(input, tr.options, nullptr,
                                            &art);
            t.session_s += secondsSince(t0);
        }
        t.hot_insns += static_cast<uint64_t>(input.trace_insns) *
                       input.copies;
        if (!art.ok)
            continue;
        {
            auto sc = spans.scope("ipf.publish", index);
            Clock::time_point t0 = Clock::now();
            full.publish(art.staging, full.generation(), b->id);
            t.publish_s += secondsSince(t0);
        }
        {
            auto sc = spans.scope("core.commit_hot", index);
            Clock::time_point t0 = Clock::now();
            tr.commitHotArtifact(art);
            t.commit_s += secondsSince(t0);
        }
        ++t.hot_calls;
    }
    return t;
}

} // namespace perfbench
