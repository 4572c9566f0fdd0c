/**
 * @file
 * Tests for the translation-lifecycle tracer and the run report:
 * replaying a deterministic configuration must reproduce the trace
 * bit-identically, lifecycle event sets must be stable across worker
 * thread counts, tracing must never perturb simulated cycles, the
 * Chrome export must validate, the Figure-6 attribution buckets must
 * sum exactly to the machine's cycle total, and the acceptance
 * scenario (gzip under four workers; a bounded cache under pressure)
 * must surface hot sessions on worker lanes and cache-flush events.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "core/report.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "support/json.hh"
#include "support/strfmt.hh"
#include "support/trace.hh"

namespace el
{
namespace
{

core::Options
traceOpts(unsigned threads, trace::Tracer *tracer)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    o.trace = tracer;
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

/** The Chrome name of @p e. */
const char *
nameOf(const trace::Event &e)
{
    return trace::kindInfo(e.kind).chrome;
}

/** Stable text encoding of one event (everything the trace exports). */
std::string
encode(const trace::Event &e)
{
    const trace::KindInfo &k = trace::kindInfo(e.kind);
    std::string s =
        strfmt("%s|%c|%u|%.17g|%.17g", k.chrome, k.ph, e.lane, e.ts, e.dur);
    for (const trace::Arg &a : k.args)
        if (a.key)
            s += strfmt("|%s=%lld", a.key,
                        static_cast<long long>(e.word(a.word)));
    return s;
}

std::string
encodeAll(const trace::Tracer &t)
{
    std::string s;
    for (const trace::Event &e : t.snapshot())
        s += encode(e) + "\n";
    return s;
}

/** The exported Chrome arg @p key of @p e into @p out; false if absent. */
bool
argOf(const trace::Event &e, const char *key, int64_t *out)
{
    for (const trace::Arg &a : trace::kindInfo(e.kind).args)
        if (a.key && std::strcmp(a.key, key) == 0) {
            *out = e.word(a.word);
            return true;
        }
    return false;
}

/** The (name, eip) pairs of all events named @p name. */
std::multiset<std::string>
eipSetOf(const trace::Tracer &t, const char *name)
{
    std::multiset<std::string> out;
    for (const trace::Event &e : t.snapshot()) {
        if (std::strcmp(nameOf(e), name) != 0)
            continue;
        int64_t eip = -1;
        argOf(e, "eip", &eip);
        out.insert(strfmt("%s@%llx", name, static_cast<long long>(eip)));
    }
    return out;
}

// ----- replay determinism -----------------------------------------------

TEST(Trace, ReplayProducesIdenticalStream)
{
    guest::Workload w = gzipWorkload();
    trace::Tracer t1, t2;
    harness::TranslatedRun r1 = harness::runTranslated(
        w.image, w.params.abi, traceOpts(4, &t1));
    harness::TranslatedRun r2 = harness::runTranslated(
        w.image, w.params.abi, traceOpts(4, &t2));
    ASSERT_TRUE(r1.outcome.exited);
    EXPECT_EQ(r1.outcome.cycles, r2.outcome.cycles);
    EXPECT_EQ(t1.dropped(), 0u);
    std::string s1 = encodeAll(t1);
    EXPECT_FALSE(s1.empty());
    EXPECT_EQ(s1, encodeAll(t2));
}

// ----- cross-thread-count stability -------------------------------------

TEST(Trace, ColdTranslateSetStableAcrossThreadCounts)
{
    guest::Workload w = gzipWorkload();
    std::multiset<std::string> sync_set, async_ref;
    for (unsigned threads : {0u, 1u, 4u}) {
        trace::Tracer t;
        harness::TranslatedRun r = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads, &t));
        ASSERT_TRUE(r.outcome.exited) << "threads " << threads;
        std::multiset<std::string> cold = eipSetOf(t, "cold_translate");
        EXPECT_FALSE(cold.empty());
        if (threads == 0) {
            sync_set = cold;
        } else if (threads == 1) {
            async_ref = cold;
        } else {
            // Planned-time adoption makes the async timeline (and so
            // the cold-translation set) identical across worker counts.
            EXPECT_EQ(async_ref, cold) << "threads " << threads;
        }
        if (threads > 0) {
            // Async runs keep executing cold code while hot sessions
            // are in flight, so they cold-translate a superset of what
            // the synchronous run does — never less.
            for (const std::string &e : sync_set)
                EXPECT_TRUE(cold.count(e)) << e << " missing at "
                                           << threads << " threads";
        }
    }
}

TEST(Trace, HotLifecycleStableAcrossWorkerCounts)
{
    guest::Workload w = gzipWorkload();
    std::multiset<std::string> ref;
    for (unsigned threads : {1u, 4u}) {
        trace::Tracer t;
        harness::TranslatedRun r = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads, &t));
        ASSERT_TRUE(r.outcome.exited);
        // Registration is driven by main-thread execution counts, so
        // the set must not depend on how many workers drain the queue.
        std::multiset<std::string> reg = eipSetOf(t, "heat_register");
        EXPECT_FALSE(reg.empty());
        if (threads == 1)
            ref = reg;
        else
            EXPECT_EQ(ref, reg);
        EXPECT_FALSE(eipSetOf(t, "hot_commit").empty());
    }
}

// ----- the zero-overhead contract ---------------------------------------

TEST(Trace, TracingOffCyclesBitIdentical)
{
    guest::Workload w = gzipWorkload();
    for (unsigned threads : {0u, 4u}) {
        trace::Tracer t;
        harness::TranslatedRun traced = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads, &t));
        harness::TranslatedRun plain = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads, nullptr));
        ASSERT_TRUE(traced.outcome.exited);
        EXPECT_EQ(traced.outcome.cycles, plain.outcome.cycles)
            << "threads " << threads;
        EXPECT_EQ(traced.outcome.exit_code, plain.outcome.exit_code);
    }
}

// ----- export + attribution ---------------------------------------------

TEST(Trace, ChromeExportValidates)
{
    guest::Workload w = gzipWorkload();
    trace::Tracer t;
    harness::runTranslated(w.image, w.params.abi, traceOpts(4, &t));
    std::string error;
    EXPECT_TRUE(trace::validateChromeTrace(t.chromeJson(), &error))
        << error;
    // A malformed document must be rejected.
    EXPECT_FALSE(trace::validateChromeTrace("{\"traceEvents\": 3}",
                                            &error));
    EXPECT_FALSE(trace::validateChromeTrace("not json", &error));
}

TEST(Trace, AttributionSumsExactlyToTotalCycles)
{
    guest::Workload w = gzipWorkload();
    for (unsigned threads : {0u, 4u}) {
        harness::TranslatedRun r = harness::runTranslated(
            w.image, w.params.abi, traceOpts(threads, nullptr));
        ASSERT_TRUE(r.outcome.exited);
        core::Attribution a = core::attributionOf(*r.runtime);
        // Exact, not approximate: every subtraction in the attribution
        // re-appears as an addition, and all terms are integer-valued
        // doubles far below 2^53.
        EXPECT_EQ(a.total(),
                  r.runtime->machine().stats().totalCycles());
        EXPECT_GE(a.cold_code, 0.0);
        EXPECT_GE(a.hot_code, 0.0);
        EXPECT_GE(a.btgeneric, 0.0);
        EXPECT_GE(a.fault_handling, 0.0);
    }
}

TEST(Trace, RunReportJsonParsesAndMatchesAttribution)
{
    guest::Workload w = gzipWorkload();
    core::Options o = traceOpts(4, nullptr);
    o.collect_block_cycles = true;
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, o);
    core::ReportInfo info;
    info.workload = w.name;
    std::string text = core::runReportJson(*r.runtime, info);
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(text, &v, &error)) << error;
    const json::Value *attr = v.find("attribution");
    ASSERT_NE(attr, nullptr);
    const json::Value *total = attr->find("total");
    ASSERT_NE(total, nullptr);
    const json::Value *cycles = v.find("cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(total->num, cycles->num);
    const json::Value *blocks = v.find("blocks");
    ASSERT_NE(blocks, nullptr);
    EXPECT_TRUE(blocks->isArray());
    EXPECT_FALSE(blocks->arr.empty());
}

// ----- acceptance scenario ----------------------------------------------

TEST(Trace, GzipHotSessionsLandOnWorkerLanes)
{
    guest::Workload w = gzipWorkload();
    trace::Tracer t;
    harness::TranslatedRun r = harness::runTranslated(
        w.image, w.params.abi, traceOpts(4, &t));
    ASSERT_TRUE(r.outcome.exited);
    std::set<uint32_t> lanes;
    for (const trace::Event &e : t.snapshot())
        if (std::strcmp(nameOf(e), "hot_emit") == 0)
            lanes.insert(e.lane);
    EXPECT_FALSE(lanes.empty());
    for (uint32_t tid : lanes)
        EXPECT_NE(tid, 0u); // sessions run on worker lanes, not lane 0
}

TEST(Trace, BoundedCachePressureEmitsFlushEvents)
{
    guest::WorkloadParams p;
    p.outer_iters = 12;
    p.size = 4000;
    p.code_copies = 12;
    guest::Workload w = guest::buildBigCode("bigcode", p);

    trace::Tracer t;
    core::Options o = traceOpts(0, &t);
    o.code_cache_capacity = 1024;
    o.cache_headroom = 512;
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, o);
    ASSERT_TRUE(r.outcome.exited);
    unsigned flushes = 0;
    for (const trace::Event &e : t.snapshot())
        if (std::strcmp(nameOf(e), "cache_flush") == 0)
            ++flushes;
    EXPECT_GE(flushes, 1u);
    std::string error;
    EXPECT_TRUE(trace::validateChromeTrace(t.chromeJson(), &error))
        << error;
}

TEST(Trace, InjectedFaultsAreTraced)
{
    guest::Workload w = gzipWorkload();
    trace::Tracer t;
    core::Options o = traceOpts(4, &t);
    o.fault.site(FaultSite::HotXlateAbort, 512); // p = 512/1024
    o.fault.seed = 7;
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, o);
    ASSERT_TRUE(r.outcome.exited);
    unsigned fires = 0;
    for (const trace::Event &e : t.snapshot())
        if (std::strcmp(nameOf(e), "fault_fire") == 0) {
            int64_t site = -1;
            ASSERT_TRUE(argOf(e, "site", &site));
            EXPECT_EQ(site, static_cast<int64_t>(FaultSite::HotXlateAbort));
            ++fires;
        }
    EXPECT_GE(fires, 1u);
}

} // namespace
} // namespace el
