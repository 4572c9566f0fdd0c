/**
 * @file
 * Tests for the asynchronous hot-translation pipeline: guest state must
 * be bit-exact across worker counts and seeds, simulated workers start
 * no OS thread, stale-generation artifacts must be discarded at commit,
 * worker-side injected session aborts must honor the bounded retry
 * policy, publication must rebase staged code correctly, and moving
 * sessions off the guest's critical path must actually shrink
 * hot-translation stall cycles.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "btlib/abi.hh"
#include "guest/image.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "ia32/assembler.hh"
#include "ipf/code_cache.hh"
#include "support/random.hh"

namespace el
{
namespace
{

using guest::Layout;
using namespace ia32;

/** Random terminating guest program with hot loops (mirrors the
 *  random-diff generator so the pipeline sees realistic candidates). */
guest::Image
randomHotProgram(uint64_t seed, uint32_t iterations = 0)
{
    Rng rng(seed);
    Assembler as(Layout::code_base);

    static const Reg pool[3] = {RegEax, RegEdx, RegEsi};
    for (int r = 0; r < 3; ++r)
        as.movRI(pool[rng.range(3)], static_cast<uint32_t>(rng.next()));
    as.movRI(RegEbx, Layout::data_base);
    as.movRI(RegEcx, iterations
                         ? iterations
                         : 200 + static_cast<uint32_t>(rng.range(200)));

    Label top = as.label();
    as.bind(top);

    unsigned body = 4 + static_cast<unsigned>(rng.range(10));
    for (unsigned k = 0; k < body; ++k) {
        Reg r1 = pool[rng.range(3)];
        Reg r2 = pool[rng.range(3)];
        uint32_t off = static_cast<uint32_t>(rng.range(64)) * 4;
        switch (rng.range(8)) {
          case 0:
            as.aluRR(Op::Add, r1, r2);
            break;
          case 1:
            as.aluRI(Op::Xor, r1, static_cast<int32_t>(rng.next()));
            break;
          case 2:
            as.movMR(memb(RegEbx, static_cast<int32_t>(off)), r1);
            break;
          case 3:
            as.movRM(r1, memb(RegEbx, static_cast<int32_t>(off)));
            break;
          case 4:
            as.imulRR(r1, r2);
            break;
          case 5: {
            as.aluRI(Op::Cmp, r1, static_cast<int32_t>(rng.range(256)));
            Label skip = as.label();
            as.jcc(static_cast<Cond>(rng.range(16)), skip);
            as.aluRI(Op::Add, r2, 1);
            as.bind(skip);
            break;
          }
          case 6:
            as.negR(r1);
            break;
          default:
            as.aluRM(Op::Add, r1, memb(RegEbx, static_cast<int32_t>(off)));
            break;
        }
    }

    as.decR(RegEcx);
    as.jcc(Cond::NE, top);

    // Checksum the arena into eax and exit with it.
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
    img.name = "random_hot";
    img.entry = Layout::code_base;
    img.addCode(Layout::code_base, as.finish());
    img.addData(Layout::data_base, 0x2000);
    return img;
}

core::Options
pipelineOpts(unsigned threads)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    return o;
}

// ----- determinism sweep ------------------------------------------------

class AsyncDeterminism : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AsyncDeterminism, BitExactAcrossThreadCounts)
{
    guest::Image img = randomHotProgram(GetParam());
    harness::Outcome ref =
        harness::runInterpreter(img, btlib::OsAbi::Linux);
    ASSERT_TRUE(ref.exited);

    for (unsigned threads : {0u, 1u, 4u}) {
        harness::TranslatedRun tr = harness::runTranslated(
            img, btlib::OsAbi::Linux, pipelineOpts(threads));
        ASSERT_EQ(ref.exited, tr.outcome.exited)
            << "seed " << GetParam() << " threads " << threads;
        EXPECT_EQ(ref.exit_code, tr.outcome.exit_code)
            << "seed " << GetParam() << " threads " << threads;
        std::string why;
        EXPECT_TRUE(
            ref.final_state.equalsArch(tr.outcome.final_state, &why))
            << "seed " << GetParam() << " threads " << threads << ": "
            << why;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncDeterminism,
                         ::testing::Range<uint64_t>(1, 9));

TEST(AsyncPipeline, DeterministicAdoptionIsReplayable)
{
    // Same image, same config, four workers: adoption follows the
    // planned worker timeline, so two runs must agree not just
    // architecturally but in simulated cycle counts.
    guest::Image img = randomHotProgram(5);
    harness::TranslatedRun a = harness::runTranslated(
        img, btlib::OsAbi::Linux, pipelineOpts(4));
    harness::TranslatedRun b = harness::runTranslated(
        img, btlib::OsAbi::Linux, pipelineOpts(4));
    ASSERT_TRUE(a.outcome.exited);
    ASSERT_TRUE(b.outcome.exited);
    EXPECT_EQ(a.outcome.exit_code, b.outcome.exit_code);
    EXPECT_DOUBLE_EQ(a.outcome.cycles, b.outcome.cycles);
    EXPECT_EQ(a.runtime->stats().get("hot.adopted"),
              b.runtime->stats().get("hot.adopted"));
    EXPECT_EQ(a.runtime->stats().get("hot.stall_cycles"),
              b.runtime->stats().get("hot.stall_cycles"));
}

/** The process's OS thread count (Linux /proc), or -1 if unreadable. */
int
osThreadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return -1;
}

TEST(AsyncPipeline, WorkersStartNoOsThread)
{
    // Workers are simulated: a session runs on the runtime's thread at
    // enqueue, so a runtime with four workers starts no OS thread.
    int before = osThreadCount();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/status";
    const guest::Workload *gzip = nullptr;
    std::vector<guest::Workload> suite = guest::specIntSuite();
    for (const guest::Workload &w : suite)
        if (w.name == "gzip")
            gzip = &w;
    ASSERT_NE(gzip, nullptr);
    harness::TranslatedRun tr = harness::runTranslated(
        gzip->image, gzip->params.abi, pipelineOpts(4));
    ASSERT_TRUE(tr.outcome.exited);
    EXPECT_GT(tr.runtime->stats().get("hot.enqueued"), 0u);
    // Read while the runtime is alive.
    EXPECT_EQ(osThreadCount(), before);
}

// ----- stale-generation discard ----------------------------------------

TEST(AsyncPipeline, StaleGenerationArtifactIsDiscarded)
{
    // Stage a session against generation G, flush (G+1), then commit:
    // the artifact must be discarded, never spliced into the new
    // generation.
    guest::Image img = randomHotProgram(2);
    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux);
    ASSERT_TRUE(tr.outcome.exited);

    core::Translator &t = tr.runtime->translator();
    core::SpecContext spec;
    core::HotSessionInput input;
    ASSERT_TRUE(t.prepareHotInput(Layout::code_base, spec, &input));

    core::HotArtifact art;
    art.generation = tr.runtime->codeCache().generation();
    core::Translator::runHotSession(input, tr.runtime->options(),
                                    nullptr, &art);
    ASSERT_TRUE(art.ok);

    t.flushCodeCache(); // bumps the generation
    uint64_t discards = t.stats.get("hot.discard_stale");
    EXPECT_EQ(t.commitHotArtifact(art), nullptr);
    EXPECT_EQ(t.stats.get("hot.discard_stale"), discards + 1);
}

TEST(AsyncPipeline, FreshGenerationArtifactCommits)
{
    guest::Image img = randomHotProgram(2);
    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux);
    ASSERT_TRUE(tr.outcome.exited);

    core::Translator &t = tr.runtime->translator();
    core::SpecContext spec;
    core::HotSessionInput input;
    ASSERT_TRUE(t.prepareHotInput(Layout::code_base, spec, &input));

    core::HotArtifact art;
    art.generation = tr.runtime->codeCache().generation();
    core::Translator::runHotSession(input, tr.runtime->options(),
                                    nullptr, &art);
    ASSERT_TRUE(art.ok);

    int64_t before = tr.runtime->codeCache().nextIndex();
    core::BlockInfo *hot = t.commitHotArtifact(art);
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(hot->kind, core::BlockKind::Hot);
    EXPECT_EQ(hot->cache_entry, before);
    EXPECT_GT(hot->cache_end, hot->cache_entry);
    // Published instructions carry the final block id.
    EXPECT_EQ(tr.runtime->codeCache().at(hot->cache_entry).meta.block_id,
              hot->id);
}

// ----- worker-side injected aborts -------------------------------------

TEST(AsyncPipeline, InjectedWorkerAbortsPinAfterRetryLimit)
{
    // Every hot session aborts (probability 1024/1024 on the worker's
    // per-candidate stream): blocks must be retried hot_retry_limit
    // times and then pinned cold, with the guest bit-exact throughout.
    // A long-running loop + cheap sessions so every abort is adopted
    // (and retried) well within the run.
    guest::Image img = randomHotProgram(3, 20000);
    harness::Outcome ref =
        harness::runInterpreter(img, btlib::OsAbi::Linux);

    core::Options o = pipelineOpts(2);
    o.hot_xlate_cost_per_insn = 100.0;
    o.fault.seed = 7;
    o.fault.site(FaultSite::HotXlateAbort, 1024);

    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux, o);
    ASSERT_TRUE(tr.outcome.exited);
    EXPECT_EQ(ref.exit_code, tr.outcome.exit_code);
    std::string why;
    EXPECT_TRUE(ref.final_state.equalsArch(tr.outcome.final_state, &why))
        << why;

    const StatGroup &ts = tr.runtime->translator().stats;
    const StatGroup &rs = tr.runtime->stats();
    EXPECT_GT(ts.get("hot.aborts_injected"), 0u);
    EXPECT_EQ(ts.get("xlate.hot_blocks"), 0u); // nothing ever committed
    EXPECT_GE(rs.get("recover.hot_pinned"), 1u);
    // Pinning respects the bounded retry budget: each pinned block
    // failed exactly hot_retry_limit times.
    EXPECT_GE(rs.get("recover.hot_abort"),
              rs.get("recover.hot_pinned") * core::hot_retry_limit);
}

// ----- stall-cycle reduction -------------------------------------------

TEST(AsyncPipeline, WorkersCutHotStallCycles)
{
    guest::Image img = randomHotProgram(4);
    harness::TranslatedRun sync = harness::runTranslated(
        img, btlib::OsAbi::Linux, pipelineOpts(0));
    harness::TranslatedRun par = harness::runTranslated(
        img, btlib::OsAbi::Linux, pipelineOpts(4));
    ASSERT_TRUE(sync.outcome.exited);
    ASSERT_TRUE(par.outcome.exited);

    uint64_t stall_sync = sync.runtime->stats().get("hot.stall_cycles");
    uint64_t stall_par = par.runtime->stats().get("hot.stall_cycles");
    ASSERT_GT(stall_sync, 0u);
    // Acceptance bar: at least a 50% reduction in guest-attributed
    // hot-translation stall.
    EXPECT_LE(stall_par * 2, stall_sync);
}

// ----- publication primitives ------------------------------------------

TEST(CodeCachePublish, RebasesTargetsAndStampsBlockIds)
{
    ipf::CodeCache main_cache, staging;
    for (int k = 0; k < 3; ++k) {
        ipf::Instr pad;
        pad.op = ipf::IpfOp::Nop;
        main_cache.emit(pad);
    }

    ipf::Instr br;
    br.op = ipf::IpfOp::Br;
    br.target = 2; // staging-relative
    staging.emit(br);
    ipf::Instr stub;
    stub.op = ipf::IpfOp::Exit;
    stub.exit_reason = ipf::ExitReason::LinkMiss;
    stub.target = -1; // unlinked: must NOT be rebased
    staging.emit(stub);
    ipf::Instr nop;
    nop.op = ipf::IpfOp::Nop;
    staging.emit(nop);

    int64_t base =
        main_cache.publish(staging, main_cache.generation(), 42);
    ASSERT_EQ(base, 3);
    EXPECT_EQ(main_cache.at(3).target, 5); // 2 + base
    EXPECT_EQ(main_cache.at(4).target, -1);
    for (int64_t i = 3; i < 6; ++i)
        EXPECT_EQ(main_cache.at(i).meta.block_id, 42);
}

TEST(CodeCachePublish, GrowsGeometrically)
{
    // Publishing must leave the vector's geometric growth alone: a
    // cache grown to exactly its size reallocates, and copies every
    // instruction, on each later publish.
    ipf::CodeCache cache, staging;
    ipf::Instr nop;
    nop.op = ipf::IpfOp::Nop;
    staging.emit(nop);
    ASSERT_EQ(cache.publish(staging, cache.generation(), 0), 0);
    const ipf::Instr *first = &cache.at(0);
    unsigned moves = 0;
    for (int32_t k = 1; k < 1000; ++k) {
        ASSERT_EQ(cache.publish(staging, cache.generation(), k), k);
        if (&cache.at(0) != first) {
            first = &cache.at(0);
            ++moves;
        }
    }
    EXPECT_LE(moves, 32u);
}

TEST(CodeCachePublish, StaleGenerationRejected)
{
    ipf::CodeCache main_cache, staging;
    ipf::Instr nop;
    nop.op = ipf::IpfOp::Nop;
    staging.emit(nop);

    uint64_t old_gen = main_cache.generation();
    main_cache.flushAll();
    EXPECT_EQ(main_cache.publish(staging, old_gen, 1), -1);
    EXPECT_EQ(main_cache.size(), 0u);
    EXPECT_GE(main_cache.publish(staging, main_cache.generation(), 1),
              0);
}

TEST(CodeCachePublish, CheckedPatchRejectsDeadGeneration)
{
    ipf::CodeCache cache;
    ipf::Instr stub;
    stub.op = ipf::IpfOp::Exit;
    stub.exit_reason = ipf::ExitReason::LinkMiss;
    int64_t idx = cache.emit(stub);

    uint64_t gen = cache.generation();
    EXPECT_TRUE(cache.patchToBranchChecked(idx, 0, gen));
    EXPECT_EQ(cache.at(idx).op, ipf::IpfOp::Br);

    ipf::CodeCache cache2;
    int64_t idx2 = cache2.emit(stub);
    uint64_t gen2 = cache2.generation();
    cache2.flushAll();
    cache2.emit(stub); // same index, new generation
    EXPECT_FALSE(cache2.patchToBranchChecked(idx2, 0, gen2));
    EXPECT_EQ(cache2.at(idx2).op, ipf::IpfOp::Exit);
}

} // namespace
} // namespace el
