/**
 * @file
 * Tests for the online execution profiler: architectural counters must
 * be bit-identical across translation-thread counts, attaching the
 * profiler (and the tracer alongside it) must never perturb simulated
 * cycles, the indirect value profiles must cross-validate against the
 * runtime's own fast-lookup statistics, and the profile JSON must parse
 * with the documented schema.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/report.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "support/json.hh"
#include "support/profile.hh"
#include "support/strfmt.hh"
#include "support/trace.hh"

namespace el
{
namespace
{

core::Options
profOpts(unsigned threads, prof::Profiler *profiler)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    o.profiler = profiler;
    return o;
}

guest::Workload
gzipWorkload()
{
    guest::WorkloadParams p;
    p.outer_iters = 60;
    p.size = 24000;
    return guest::buildStream("gzip", p);
}

guest::Workload
craftyWorkload()
{
    guest::WorkloadParams p;
    p.outer_iters = 40;
    p.size = 9000;
    p.indirect_every = 1; // ret-heavy with an indirect dispatch loop
    return guest::buildBranchy("crafty", p);
}

guest::Workload
parserWorkload()
{
    guest::WorkloadParams p;
    p.outer_iters = 60;
    p.size = 20000;
    return guest::buildParser("parser", p);
}

/**
 * Stable text encoding of every architectural counter the profiler
 * guarantees across thread counts: block executions, conditional
 * taken/fall edges, and the full indirect value profiles. The
 * via_link/via_dispatch diagnostics are deliberately excluded — they
 * reflect translation phase and adoption timing, which legitimately
 * differ.
 */
std::string
profSignature(const prof::Profiler &p)
{
    std::string s;
    for (const auto &[entry, row] : p.blocks())
        if (row.execs)
            s += strfmt("B %08x %llu\n", entry,
                        static_cast<unsigned long long>(row.execs));
    for (const auto &[ip, cs] : p.condSites())
        s += strfmt("C %08x t=%08x f=%08x %llu %llu\n", ip, cs.taken_eip,
                    cs.fall_eip,
                    static_cast<unsigned long long>(cs.taken),
                    static_cast<unsigned long long>(cs.fall));
    for (const auto &[ip, site] : p.indirectSites()) {
        s += strfmt("I %08x %llu %llu %llu %llu\n", ip,
                    static_cast<unsigned long long>(site.execs),
                    static_cast<unsigned long long>(site.hits),
                    static_cast<unsigned long long>(site.misses),
                    static_cast<unsigned long long>(site.evictions));
        for (const prof::TargetCount &t : site.targets)
            s += strfmt("  -> %08x %llu\n", t.target,
                        static_cast<unsigned long long>(t.count));
    }
    s += strfmt("events %llu\n",
                static_cast<unsigned long long>(p.eventCount()));
    return s;
}

// ----- the zero-overhead contract ---------------------------------------

TEST(Profile, ProfilerOffCyclesBitIdentical)
{
    guest::Workload w = gzipWorkload();
    for (unsigned threads : {0u, 4u}) {
        prof::Profiler p;
        harness::TranslatedRun profiled = harness::runTranslated(
            w.image, w.params.abi, profOpts(threads, &p));
        harness::TranslatedRun plain = harness::runTranslated(
            w.image, w.params.abi, profOpts(threads, nullptr));
        ASSERT_TRUE(profiled.outcome.exited);
        EXPECT_EQ(profiled.outcome.cycles, plain.outcome.cycles)
            << "threads " << threads;
        EXPECT_EQ(profiled.outcome.exit_code, plain.outcome.exit_code);
        EXPECT_GT(p.eventCount(), 0u);
    }
}

TEST(Profile, TracerAndProfilerTogetherCyclesBitIdentical)
{
    guest::Workload w = craftyWorkload();
    prof::Profiler p;
    trace::Tracer t;
    core::Options both = profOpts(4, &p);
    both.trace = &t;
    harness::TranslatedRun on =
        harness::runTranslated(w.image, w.params.abi, both);
    harness::TranslatedRun off = harness::runTranslated(
        w.image, w.params.abi, profOpts(4, nullptr));
    ASSERT_TRUE(on.outcome.exited);
    EXPECT_EQ(on.outcome.cycles, off.outcome.cycles);
    EXPECT_EQ(on.outcome.exit_code, off.outcome.exit_code);
}

// ----- cross-thread-count determinism -----------------------------------

TEST(Profile, CountersIdenticalAcrossThreadCounts)
{
    // The two self-modifying personalities take SMC exits whose number
    // depends on when hot traces are adopted, so they also prove the
    // invalidation and resync rules never drop a block execution.
    std::vector<guest::Workload> suite = {gzipWorkload(),
                                          craftyWorkload()};
    for (const guest::Workload &w : guest::adversarialSuite())
        if (w.name == "jit_rewriter" || w.name == "threaded_smc")
            suite.push_back(w);
    ASSERT_EQ(suite.size(), 4u);
    for (const guest::Workload &w : suite) {
        std::string ref;
        for (unsigned threads : {0u, 1u, 4u}) {
            prof::Profiler p;
            harness::TranslatedRun r = harness::runTranslated(
                w.image, w.params.abi, profOpts(threads, &p));
            ASSERT_TRUE(r.outcome.exited)
                << w.name << " threads " << threads;
            // The canonical chain walk must never lose its place on
            // these workloads — any break would silently undercount.
            EXPECT_EQ(p.walkBreaks(), 0u) << w.name;
            EXPECT_EQ(p.lostEvents(), 0u) << w.name;
            std::string sig = profSignature(p);
            EXPECT_FALSE(sig.empty());
            if (threads == 0)
                ref = sig;
            else
                EXPECT_EQ(ref, sig)
                    << w.name << " diverged at " << threads
                    << " threads";
        }
    }
}

// ----- the cached links, driven directly ---------------------------------

/**
 * A synthetic guest for driving a Profiler without a runtime: one
 * two-byte instruction per address, editable between events as
 * self-modifying code would. An address with no instruction decodes
 * as Stop, as unmapped bytes do.
 */
struct FakeGuest
{
    std::map<uint32_t, prof::InsnInfo> code;

    void put(uint32_t ip, prof::InsnKind kind, uint32_t target = 0)
    {
        code[ip] = {kind, ip + 2, target};
    }

    prof::InsnResolver resolver()
    {
        return [this](uint32_t ip) {
            auto it = code.find(ip);
            return it == code.end()
                       ? prof::InsnInfo{prof::InsnKind::Stop, ip, 0}
                       : it->second;
        };
    }
};

uint64_t
execsAt(const prof::Profiler &p, uint32_t entry)
{
    auto rows = p.blocks();
    auto it = rows.find(entry);
    return it == rows.end() ? 0 : it->second.execs;
}

TEST(Profile, CachedLinksWalkJumpCallAndCapBlocks)
{
    using K = prof::InsnKind;
    FakeGuest g;
    g.put(0x1000, K::Plain);
    g.put(0x1002, K::Jump, 0x2000);
    g.put(0x2000, K::Plain);
    g.put(0x2002, K::CallDirect, 0x3000);
    for (uint32_t k = 0; k < 128; ++k) // decode cap: no terminator
        g.put(0x3000 + 2 * k, K::Plain);
    g.put(0x3100, K::Plain);
    g.put(0x3102, K::Cond, 0x1000);

    prof::Profiler p;
    p.setResolver(g.resolver());
    p.resync(0x1000);
    // The first event decodes and links the chain; the others follow
    // the cached links (taken goes back to 0x1000).
    for (int i = 0; i < 3; ++i)
        p.condEvent(0x3102, 0x1000, /*fired=*/true, /*via_link=*/false);

    auto rows = p.blocks();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows.at(0x1000).block.kind, K::Jump);
    EXPECT_EQ(rows.at(0x2000).block.kind, K::CallDirect);
    EXPECT_EQ(rows.at(0x3000).block.kind, K::Plain);
    EXPECT_EQ(rows.at(0x3000).block.insns, 128u);
    EXPECT_EQ(rows.at(0x3000).block.next, 0x3100u);
    EXPECT_EQ(rows.at(0x3100).block.kind, K::Cond);
    for (const auto &[entry, row] : rows)
        EXPECT_EQ(row.execs, 3u) << std::hex << entry;
    EXPECT_EQ(p.condSites().at(0x3102).taken, 3u);
    EXPECT_EQ(p.condSites().at(0x3102).fall, 0u);
    EXPECT_EQ(p.walkBreaks(), 0u);
    EXPECT_EQ(p.lostEvents(), 0u);

    // Falling through moves the cursor to a block never decoded yet.
    g.put(0x3104, K::Stop);
    p.condEvent(0x3102, 0x1000, /*fired=*/false, /*via_link=*/false);
    p.stopEvent(0x3104);
    EXPECT_EQ(p.condSites().at(0x3102).fall, 1u);
    EXPECT_EQ(execsAt(p, 0x3104), 1u);
}

TEST(Profile, WalkBeyondMaxWalkCountsNothing)
{
    using K = prof::InsnKind;
    // 65 jump blocks in a row, then a stop block. The walk bound is 64
    // blocks past the cursor block.
    FakeGuest g;
    constexpr uint32_t base = 0x10000;
    for (uint32_t k = 0; k < 65; ++k)
        g.put(base + 0x10 * k, K::Jump, base + 0x10 * (k + 1));
    const uint32_t stop = base + 0x10 * 65;
    g.put(stop, K::Stop);

    prof::Profiler p;
    p.setResolver(g.resolver());

    // 64 jumps and the stop block: exactly at the bound.
    p.resync(base + 0x10);
    p.stopEvent(stop);
    EXPECT_EQ(p.walkBreaks(), 0u);
    EXPECT_EQ(execsAt(p, base + 0x10), 1u);
    EXPECT_EQ(execsAt(p, stop), 1u);

    // One block more: nothing counts, and the cursor is lost.
    p.resync(base);
    p.stopEvent(stop);
    EXPECT_EQ(p.walkBreaks(), 1u);
    EXPECT_EQ(execsAt(p, base), 0u);
    EXPECT_EQ(execsAt(p, base + 0x10), 1u);
    EXPECT_EQ(execsAt(p, stop), 1u);
    p.stopEvent(stop);
    EXPECT_EQ(p.lostEvents(), 1u);
    EXPECT_EQ(execsAt(p, stop), 1u);

    // Until a resync re-anchors it.
    p.resync(base + 0x10 * 64);
    p.stopEvent(stop);
    EXPECT_EQ(execsAt(p, base + 0x10 * 64), 2u);
    EXPECT_EQ(execsAt(p, stop), 2u);
    EXPECT_EQ(p.walkBreaks(), 1u);
    EXPECT_EQ(p.lostEvents(), 1u);
}

TEST(Profile, InvalidateCodeDropsCachedLinks)
{
    using K = prof::InsnKind;
    FakeGuest g;
    g.put(0x4000, K::Plain); // P: the cursor block
    g.put(0x4002, K::Jump, 0x5000);
    g.put(0x5000, K::Plain); // E: rewritten below
    g.put(0x5002, K::Jump, 0x6000);
    g.put(0x6000, K::Cond, 0x4000); // F
    g.put(0x7000, K::Cond, 0x4000); // G

    prof::Profiler p;
    p.setResolver(g.resolver());
    p.resync(0x4000);
    p.condEvent(0x6000, 0x4000, /*fired=*/true, /*via_link=*/true);
    EXPECT_EQ(execsAt(p, 0x5000), 1u);

    // E's jump now goes to G. The write misses the cursor block P, so
    // the cursor survives, but P's cached link to E must not.
    g.put(0x5002, K::Jump, 0x7000);
    p.invalidateCode(0x5002, 2);
    p.condEvent(0x7000, 0x4000, /*fired=*/true, /*via_link=*/true);

    EXPECT_EQ(p.walkBreaks(), 0u);
    EXPECT_EQ(p.lostEvents(), 0u);
    EXPECT_EQ(execsAt(p, 0x4000), 2u);
    EXPECT_EQ(execsAt(p, 0x5000), 2u); // both incarnations of E
    EXPECT_EQ(execsAt(p, 0x6000), 1u);
    EXPECT_EQ(execsAt(p, 0x7000), 1u);
    EXPECT_EQ(p.blocks().at(0x5000).block.next, 0x7000u);
}

TEST(Profile, SmcResyncCompletesTheCursorBlock)
{
    using K = prof::InsnKind;
    FakeGuest g;
    g.put(0x8000, K::Plain); // K: the caller
    g.put(0x8002, K::CallDirect, 0x9000);
    g.put(0x9000, K::Plain); // L: the rewritten callee
    g.put(0x9002, K::Indirect);

    prof::Profiler p;
    p.setResolver(g.resolver());
    p.resync(0x8000);
    // Re-executing inside the cursor block keeps the walk.
    p.resync(0x8002);
    // An SMC exit at the callee's head: the write misses the caller,
    // and the resync at its static successor completes it.
    p.invalidateCode(0x9000, 4);
    p.resync(0x9000);
    EXPECT_EQ(execsAt(p, 0x8000), 1u);
    EXPECT_EQ(execsAt(p, 0x8002), 0u);
    p.indirectEvent(0x9002, 0x8004, /*hit=*/true);
    EXPECT_EQ(execsAt(p, 0x9000), 1u);
    EXPECT_EQ(p.walkBreaks(), 0u);
    EXPECT_EQ(p.lostEvents(), 0u);

    // Dropping a counted block keeps its row.
    p.invalidateCode(0x9000, 4);
    EXPECT_EQ(execsAt(p, 0x9000), 1u);
    StatGroup c = p.counters();
    EXPECT_EQ(c.get("prof.canon_blocks"), 1u);
    EXPECT_EQ(c.get("prof.blocks_counted"), 2u);

    // A write over the cursor block itself loses the cursor.
    p.resync(0x8000);
    p.invalidateCode(0x8002, 1);
    p.indirectEvent(0x9002, 0x8004, /*hit=*/true);
    EXPECT_EQ(p.lostEvents(), 1u);
}

// ----- indirect value profiles vs runtime statistics ---------------------

TEST(Profile, IndirectProfileCrossValidatesAgainstStats)
{
    guest::Workload w = parserWorkload();
    prof::Profiler p;
    harness::TranslatedRun r = harness::runTranslated(
        w.image, w.params.abi, profOpts(0, &p));
    ASSERT_TRUE(r.outcome.exited);
    ASSERT_FALSE(p.indirectSites().empty());

    // Every profiler-observed fast-lookup miss is an IndirectMiss exit
    // the runtime serviced, and vice versa — the totals match exactly.
    uint64_t prof_misses = 0, prof_execs = 0;
    for (const auto &[ip, site] : p.indirectSites()) {
        prof_misses += site.misses;
        prof_execs += site.execs;
        EXPECT_EQ(site.execs, site.hits + site.misses);
    }
    EXPECT_EQ(prof_misses, r.runtime->stats().get("exits.indirect_miss"));
    ASSERT_GT(prof_execs, 0u);

    // The hottest site's dominant target must explain at least the
    // fast-lookup hit rate: the lookup cache can only hit targets the
    // value profile also saw.
    const prof::IndirectSite *top = nullptr;
    for (const auto &[ip, site] : p.indirectSites())
        if (!top || site.execs > top->execs)
            top = &site;
    ASSERT_NE(top, nullptr);
    ASSERT_FALSE(top->targets.empty());
    uint64_t dominant = 0;
    for (const prof::TargetCount &t : top->targets)
        dominant = std::max(dominant, t.count);
    double dominant_share = static_cast<double>(dominant) /
                            static_cast<double>(top->execs);
    double hit_rate = 1.0 - static_cast<double>(prof_misses) /
                                static_cast<double>(prof_execs);
    EXPECT_GE(dominant_share, hit_rate);
}

// ----- export ------------------------------------------------------------

TEST(Profile, ProfileJsonParsesWithSchema)
{
    guest::Workload w = craftyWorkload();
    prof::Profiler p;
    core::Options o = profOpts(4, &p);
    o.collect_block_cycles = true;
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, o);
    ASSERT_TRUE(r.outcome.exited);

    std::string text = core::profileJson(*r.runtime, p, w.name);
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(text, &v, &error)) << error;

    EXPECT_EQ(v.strOr("kind", ""), "el-profile");
    EXPECT_EQ(v.numberOr("version", 0), 1);
    EXPECT_EQ(v.strOr("workload", ""), w.name);
    EXPECT_EQ(v.numberOr("cycles", -1), r.outcome.cycles);

    const json::Value *blocks = v.find("blocks");
    ASSERT_NE(blocks, nullptr);
    ASSERT_TRUE(blocks->isArray());
    ASSERT_FALSE(blocks->arr.empty());
    bool any_xlate = false, any_disasm = false;
    for (const json::Value &b : blocks->arr) {
        const json::Value *disasm = b.find("disasm");
        ASSERT_NE(disasm, nullptr);
        any_disasm |= !disasm->arr.empty();
        if (b.find("xlate"))
            any_xlate = true;
    }
    EXPECT_TRUE(any_disasm);
    EXPECT_TRUE(any_xlate); // collect_block_cycles joins IPF costs

    for (const char *key : {"cond_sites", "indirect_sites"}) {
        const json::Value *arr = v.find(key);
        ASSERT_NE(arr, nullptr) << key;
        EXPECT_TRUE(arr->isArray()) << key;
        EXPECT_FALSE(arr->arr.empty()) << key;
    }

    const json::Value *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("prof.walk_breaks", -1), 0);
    EXPECT_EQ(counters->numberOr("prof.lost_events", -1), 0);
}

} // namespace
} // namespace el
