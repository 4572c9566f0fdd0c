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
#include <string>

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
    o.deterministic_adoption = threads > 0;
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
    for (const auto &[entry, execs] : p.blockExecs())
        s += strfmt("B %08x %llu\n", entry,
                    static_cast<unsigned long long>(execs));
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
    for (const guest::Workload &w :
         {gzipWorkload(), craftyWorkload()}) {
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
