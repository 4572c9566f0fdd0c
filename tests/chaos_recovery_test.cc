/**
 * @file
 * Chaos tests for the recovery paths: seeded fault injection drives
 * BTOS allocation failures, translation aborts, synthetic code-cache
 * exhaustion and guest fault storms through a bounded code cache, and
 * every run must still produce bit-exact architectural state against
 * the reference interpreter (which always runs injection-free).
 *
 * The directed tests pin each recovery path individually via the
 * recover.* stats counters; the parameterized sweep then runs many
 * seeds of everything-at-once chaos, and ChaosSweep.SweepHasTeeth
 * checks that every armed site fires somewhere in it.
 */

#include <gtest/gtest.h>

#include <array>

#include "btlib/abi.hh"
#include "guest/image.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "ia32/assembler.hh"
#include "support/faultinject.hh"
#include "support/random.hh"

namespace el
{
namespace
{

using btlib::OsAbi;
using guest::Layout;
using namespace ia32;

/**
 * A multi-phase workload: several independent hot loops over private
 * arenas, sized so a bounded code cache must flush at least once, then
 * an arena checksum as the exit code. Deterministic per seed.
 */
guest::Image
chaosProgram(uint64_t seed)
{
    Rng rng(seed);
    Assembler as(Layout::code_base);
    static const Reg pool[3] = {RegEax, RegEdx, RegEsi};

    for (int r = 0; r < 3; ++r)
        as.movRI(pool[r], static_cast<uint32_t>(rng.next()));

    const unsigned phases = 4;
    for (unsigned ph = 0; ph < phases; ++ph) {
        as.movRI(RegEbx, Layout::data_base + ph * 0x400);
        as.movRI(RegEcx, 60 + static_cast<uint32_t>(rng.range(60)));
        Label top = as.label();
        as.bind(top);
        unsigned body = 6 + static_cast<unsigned>(rng.range(12));
        for (unsigned k = 0; k < body; ++k) {
            Reg r1 = pool[rng.range(3)];
            Reg r2 = pool[rng.range(3)];
            int32_t off = static_cast<int32_t>(rng.range(64)) * 4;
            switch (rng.range(8)) {
              case 0:
                as.aluRR(Op::Add, r1, r2);
                break;
              case 1:
                as.aluRI(Op::Xor, r1, static_cast<int32_t>(rng.next()));
                break;
              case 2:
                as.movMR(memb(RegEbx, off), r1);
                break;
              case 3:
                as.movRM(r1, memb(RegEbx, off));
                break;
              case 4:
                as.imulRR(r1, r2);
                break;
              case 5: {
                as.aluRI(Op::Cmp, r1,
                         static_cast<int32_t>(rng.range(256)));
                Label skip = as.label();
                as.jcc(static_cast<Cond>(rng.range(16)), skip);
                as.aluRI(Op::Add, r2, 1);
                as.bind(skip);
                break;
              }
              case 6:
                as.shiftRI(Op::Shl, r1,
                           static_cast<uint8_t>(1 + rng.range(7)));
                break;
              default:
                as.aluRM(Op::Add, r1, memb(RegEbx, off));
                break;
            }
        }
        as.decR(RegEcx);
        as.jcc(Cond::NE, top);
    }

    // Checksum the first arena into eax; exit with it.
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEsi, 64);
    as.movRI(RegEax, 0);
    Label sum = as.label();
    as.bind(sum);
    as.aluRM(Op::Add, RegEax, membi(RegEbx, RegEsi, 4, -4));
    as.decR(RegEsi);
    as.jcc(Cond::NE, sum);
    as.aluRI(Op::And, RegEax, 0xff);
    as.movRR(RegEbx, RegEax);
    as.movRI(RegEax, btlib::linux_abi::nr_exit);
    as.intN(btlib::linux_abi::int_vector);

    guest::Image img;
    img.name = "chaos";
    img.entry = Layout::code_base;
    img.addCode(Layout::code_base, as.finish());
    img.addData(Layout::data_base, 0x2000);
    return img;
}

/** Translated run must match the (injection-free) interpreter exactly. */
void
expectMatchesReference(const harness::Outcome &ref,
                       const harness::Outcome &got, uint64_t seed)
{
    ASSERT_EQ(ref.exited, got.exited) << "seed " << seed;
    ASSERT_EQ(ref.faulted, got.faulted) << "seed " << seed;
    if (ref.exited)
        EXPECT_EQ(ref.exit_code, got.exit_code) << "seed " << seed;
    if (ref.faulted) {
        EXPECT_EQ(ref.fault.kind, got.fault.kind) << "seed " << seed;
        EXPECT_EQ(ref.fault.eip, got.fault.eip) << "seed " << seed;
    }
    EXPECT_EQ(ref.console, got.console) << "seed " << seed;
    std::string why;
    EXPECT_TRUE(ref.final_state.equalsArch(got.final_state, &why))
        << "seed " << seed << ": " << why;
}

// ----- directed recovery-path tests ---------------------------------

TEST(ChaosDirected, CacheFlushGenerationExercised)
{
    // No injection at all: a bounded cache alone must force the
    // flush-and-retranslate GC and still compute the right answer.
    guest::Image img = chaosProgram(1);
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);

    core::Options o;
    o.heat_threshold = 8;
    o.hot_batch = 1;
    o.code_cache_capacity = 1024;
    o.cache_headroom = 512;
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, o);
    expectMatchesReference(ref, tr.outcome, 1);

    uint64_t flushes =
        tr.runtime->translator().stats.get("recover.cache_flush");
    EXPECT_GE(flushes, 1u);
    EXPECT_EQ(tr.runtime->codeCache().generation(), flushes);
    EXPECT_LE(tr.runtime->codeCache().highWater(),
              o.code_cache_capacity);
}

TEST(ChaosDirected, ColdAbortFallsBackToInterpreter)
{
    // Every cold translation aborts until the firing budget runs out;
    // each abort must be absorbed by the interpreter fallback.
    guest::Image img = chaosProgram(2);
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);

    core::Options o;
    o.enable_hot_phase = false;
    o.fault.seed = 22;
    o.fault.site(FaultSite::ColdXlateAbort, 1024);
    o.fault.max_fires = 6;
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, o);
    expectMatchesReference(ref, tr.outcome, 2);

    EXPECT_EQ(tr.runtime->stats().get("recover.xlate_abort"), 6u);
    EXPECT_GE(tr.runtime->stats().get("recover.interp_steps"), 6u);
    EXPECT_EQ(
        tr.runtime->translator().stats.get("xlate.cold_aborts_injected"),
        6u);
}

TEST(ChaosDirected, HotAbortsArePinnedCold)
{
    // Every hot session aborts, forever: after hot_retry_limit failed
    // sessions a block must be pinned cold instead of retried on every
    // threshold crossing.
    guest::Image img = chaosProgram(3);
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);

    core::Options o;
    o.heat_threshold = 8;
    o.hot_batch = 1;
    o.fault.seed = 33;
    o.fault.site(FaultSite::HotXlateAbort, 1024);
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, o);
    expectMatchesReference(ref, tr.outcome, 3);

    EXPECT_GE(tr.runtime->stats().get("recover.hot_abort"), 2u);
    EXPECT_GE(tr.runtime->stats().get("recover.hot_pinned"), 1u);
    EXPECT_EQ(tr.runtime->translator().stats.get("xlate.hot_blocks"), 0u);
}

TEST(ChaosDirected, BtosAllocRetriesThenSucceeds)
{
    // The runtime-area allocation fails a few times, then the firing
    // budget runs out and the retry loop succeeds.
    guest::Image img = chaosProgram(4);
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);

    core::Options o;
    o.fault.seed = 44;
    o.fault.site(FaultSite::BtosAlloc, 1024);
    o.fault.max_fires = 3;
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, o);
    expectMatchesReference(ref, tr.outcome, 4);

    EXPECT_EQ(tr.runtime->stats().get("recover.btos_alloc_fail"), 3u);
    EXPECT_TRUE(tr.runtime->initOk());
}

TEST(ChaosDirected, BtosAllocExhaustionIsInitError)
{
    // When every allocation attempt fails, the runtime must degrade to
    // a clean InitError — not assert.
    mem::Memory mem;
    std::unique_ptr<btlib::SimOsBase> os =
        harness::makeOs(OsAbi::Linux, mem);

    core::Options o;
    o.fault.seed = 55;
    o.fault.site(FaultSite::BtosAlloc, 1024); // unlimited budget
    core::Runtime rt(mem, os->vtable(), o);
    EXPECT_FALSE(rt.initOk());
    EXPECT_EQ(rt.stats().get("recover.btos_alloc_fail"),
              static_cast<uint64_t>(core::btos_alloc_retries));

    ia32::State state;
    core::RunResult res = rt.run(state);
    EXPECT_EQ(res.kind, core::RunResult::Kind::InitError);
}

TEST(ChaosDirected, BtosAllocExhaustionNamesItsCause)
{
    // The handshake succeeded; the runtime-area allocation did not. The
    // init error, and the internal reason a harness run reports, must
    // say so instead of blaming the handshake.
    core::Options o;
    o.fault.seed = 55;
    o.fault.site(FaultSite::BtosAlloc, 1024);
    harness::TranslatedRun tr =
        harness::runTranslated(chaosProgram(4), OsAbi::Linux, o);
    ASSERT_FALSE(tr.runtime->initOk());
    EXPECT_TRUE(tr.outcome.internal_error);
    EXPECT_FALSE(tr.outcome.exited);
    EXPECT_NE(tr.outcome.internal_reason.find(
                  "runtime area allocation failed"),
              std::string::npos)
        << tr.outcome.internal_reason;
    EXPECT_EQ(tr.outcome.internal_reason.find("handshake"),
              std::string::npos)
        << tr.outcome.internal_reason;
    EXPECT_EQ(tr.runtime->initError(), tr.outcome.internal_reason);
}

TEST(ChaosDirected, StormFaultsAreTransparent)
{
    // Injected transient guest faults during the interpreter fallback
    // must be retried, never delivered to the guest.
    guest::Image img = chaosProgram(5);
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);

    core::Options o;
    o.enable_hot_phase = false;
    o.fault.seed = 66;
    o.fault.site(FaultSite::ColdXlateAbort, 1024);
    o.fault.site(FaultSite::GuestFaultStorm, 512);
    o.fault.max_fires = 40;
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, o);
    expectMatchesReference(ref, tr.outcome, 5);

    EXPECT_GE(tr.runtime->stats().get("recover.storm_fault"), 1u);
    EXPECT_GE(tr.runtime->stats().get("recover.interp_steps"), 1u);
}

// ----- precise exception state, both OS personalities ----------------

/**
 * Mid-block fault delivery with precise state, on both SimLinux and
 * SimWindows. The signal-storm personality faults a few instructions
 * into a loop body with live register updates in flight; its handler
 * folds the delivered fault kind, address and EIP into the exit
 * checksum, so any imprecision in the reconstructed state — or any
 * divergence between the two OS personalities' delivery paths and the
 * interpreter's — changes the final answer.
 */
TEST(PreciseState, MidBlockFaultDeliveryMatchesOracle)
{
    for (OsAbi abi : {OsAbi::Linux, OsAbi::Windows}) {
        guest::WorkloadParams p;
        p.outer_iters = 12;
        p.size = 64;
        p.abi = abi;
        guest::Workload w = guest::buildSignalStorm("storm_precise", p);
        harness::Outcome ref = harness::runInterpreter(w.image, abi);
        ASSERT_TRUE(ref.exited);

        harness::TranslatedRun tr =
            harness::runTranslated(w.image, abi);
        expectMatchesReference(ref, tr.outcome,
                               abi == OsAbi::Linux ? 100 : 101);
        // The storm really stormed: a dense stream of delivered faults,
        // every one raised from the middle of a translated block.
        EXPECT_GE(tr.runtime->stats().get("faults.delivered"), 100u)
            << (abi == OsAbi::Linux ? "linux" : "windows");
    }
}

TEST(PreciseState, MidBlockFaultFromHotCodeMatchesOracle)
{
    // Same storm, but with the loop re-heated so faults are raised from
    // *hot* translations: delivery must reconstruct precise state via
    // the recovery maps, synchronously and with pipeline workers.
    for (OsAbi abi : {OsAbi::Linux, OsAbi::Windows}) {
        guest::WorkloadParams p;
        p.outer_iters = 16;
        p.size = 96;
        p.abi = abi;
        guest::Workload w = guest::buildSignalStorm("storm_hot", p);
        harness::Outcome ref = harness::runInterpreter(w.image, abi);
        ASSERT_TRUE(ref.exited);

        for (unsigned threads : {0u, 4u}) {
            core::Options o;
            o.heat_threshold = 16;
            o.hot_batch = 1;
            o.translation_threads = threads;
            harness::TranslatedRun tr =
                harness::runTranslated(w.image, abi, o);
            expectMatchesReference(ref, tr.outcome, 102 + threads);
            EXPECT_GE(tr.runtime->stats().get("faults.delivered"), 100u);
            EXPECT_GE(
                tr.runtime->translator().stats.get("xlate.hot_blocks"),
                1u)
                << "storm never re-heated; the test lost its point";
        }
    }
}

// ----- the everything-at-once chaos sweep ---------------------------

/** The sweep's everything-at-once injection config for @p seed. */
core::Options
chaosOpts(uint64_t seed)
{
    core::Options o;
    o.heat_threshold = 8;
    o.hot_batch = 1;
    o.code_cache_capacity = 1536;
    o.cache_headroom = 768;
    o.fault.seed = 0x9e3779b97f4a7c15ull ^ seed;
    o.fault.site(FaultSite::BtosAlloc, 200)
        .site(FaultSite::ColdXlateAbort, 96)
        .site(FaultSite::HotXlateAbort, 300)
        .site(FaultSite::CacheExhaust, 32)
        .site(FaultSite::GuestFaultStorm, 128);
    o.fault.max_fires = 64;
    return o;
}

constexpr uint64_t chaos_first_seed = 1;
constexpr uint64_t chaos_end_seed = 25;

class ChaosRecovery : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ChaosRecovery, SurvivesInjectionBitExact)
{
    const uint64_t seed = GetParam();
    guest::Image img = chaosProgram(seed);

    // Reference first: no Runtime alive, so no injector is installed
    // and the oracle always runs clean.
    harness::Outcome ref = harness::runInterpreter(img, OsAbi::Linux);

    core::Options o = chaosOpts(seed);
    harness::TranslatedRun tr =
        harness::runTranslated(img, OsAbi::Linux, o);
    expectMatchesReference(ref, tr.outcome, seed);

    // The bounded cache must honour its cap and must have gone through
    // at least one flush-and-retranslate generation.
    const ipf::CodeCache &cache = tr.runtime->codeCache();
    EXPECT_LE(cache.highWater(), o.code_cache_capacity)
        << "seed " << seed;
    EXPECT_GE(cache.generation(), 1u) << "seed " << seed;
    EXPECT_GE(tr.runtime->translator().stats.get("recover.cache_flush"),
              1u)
        << "seed " << seed;

    // The injector saw traffic. Whether this one seed's dice fire is
    // chance; SweepHasTeeth checks that the sweep as a whole does.
    const FaultInjector *fi = tr.runtime->faultInjector();
    ASSERT_NE(fi, nullptr);
    EXPECT_GT(fi->totalConsults(), 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosRecovery,
                         ::testing::Range<uint64_t>(chaos_first_seed,
                                                    chaos_end_seed));

TEST(ChaosSweep, SweepHasTeeth)
{
    // Guard against the sweep silently degenerating: across its seeds,
    // every armed site must fire at least once, or the recovery path
    // behind it goes unexercised.
    std::array<uint64_t, num_fault_sites> fires{};
    for (uint64_t seed = chaos_first_seed; seed < chaos_end_seed; ++seed) {
        harness::TranslatedRun tr = harness::runTranslated(
            chaosProgram(seed), OsAbi::Linux, chaosOpts(seed));
        const FaultInjector *fi = tr.runtime->faultInjector();
        ASSERT_NE(fi, nullptr);
        for (size_t s = 0; s < num_fault_sites; ++s)
            fires[s] += fi->fires(static_cast<FaultSite>(s));
    }
    core::Options armed = chaosOpts(chaos_first_seed);
    for (size_t s = 0; s < num_fault_sites; ++s) {
        if (armed.fault.prob[s]) {
            EXPECT_GT(fires[s], 0u)
                << faultSiteName(static_cast<FaultSite>(s))
                << " never fired across the sweep";
        }
    }
}

} // namespace
} // namespace el
