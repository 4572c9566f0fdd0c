/**
 * @file
 * Tests for the always-on black box (the drop-oldest view of the event
 * stream), the artifact provenance ledger, the telemetry snapshotter
 * (the run's one periodic sampler), and the run report's account of
 * how a run ended.
 *
 * The load-bearing properties:
 *  - recording charges zero simulated cycles: guest results AND cycle
 *    counts are bit-exact with the recorder on or off;
 *  - the merged flight is deterministic: two identical runs produce
 *    identical event sequences for every translation_threads setting,
 *    even when a ring overflows, because the runtime records every
 *    event and worker events carry planned simulated times and
 *    planned worker slots, never wall clock;
 *  - the Chrome capture and the black box are two views of one stream:
 *    every step both record is counted the same in each;
 *  - a chaos run's report names the injected fault site that
 *    caused the trouble, and the faulting entry point's provenance
 *    chain is present.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "btlib/abi.hh"
#include "core/provenance.hh"
#include "core/report.hh"
#include "guest/image.hh"
#include "guest/workloads.hh"
#include "harness/exec.hh"
#include "ia32/assembler.hh"
#include "support/faultinject.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/profile.hh"
#include "support/random.hh"
#include "support/trace.hh"

namespace el
{
namespace
{

using guest::Layout;
using namespace ia32;

/** Tight counted loop, hot enough to cross any heat threshold. */
guest::Image
hotLoopProgram(uint32_t iterations = 400)
{
    Assembler as(Layout::code_base);
    as.movRI(RegEax, 0);
    as.movRI(RegEcx, iterations);
    Label top = as.label();
    as.bind(top);
    as.aluRI(Op::Add, RegEax, 3);
    as.aluRI(Op::Xor, RegEax, 0x55);
    as.decR(RegEcx);
    as.jcc(Cond::NE, top);
    as.aluRI(Op::And, RegEax, 0x7f);
    as.movRR(RegEbx, RegEax);
    as.movRI(RegEax, btlib::linux_abi::nr_exit);
    as.intN(btlib::linux_abi::int_vector);

    guest::Image img;
    img.name = "flight_hotloop";
    img.entry = Layout::code_base;
    img.addCode(Layout::code_base, as.finish());
    img.addData(Layout::data_base, 0x1000);
    return img;
}

core::Options
hotOpts(unsigned threads, bool flight = true)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    o.flight_recorder = flight;
    return o;
}

// ----- recorder unit behavior -------------------------------------------

using trace::Kind;

/** Record @p n events of @p kind at ts = a = 0..n-1 on lane 0. */
void
recordSeries(trace::Tracer &t, Kind kind, int n)
{
    for (int i = 0; i < n; ++i)
        t.record({kind, 0, static_cast<double>(i), 0, i});
}

TEST(FlightRecorder, DropOldestKeepsTheTail)
{
    trace::Tracer box(4, trace::View::BlackBox);
    recordSeries(box, Kind::Dispatch, 10);
    std::vector<trace::Event> ev = box.snapshot();
    ASSERT_EQ(ev.size(), 4u);
    // The last four events survive, the first six were evicted.
    EXPECT_EQ(ev.front().a, 6);
    EXPECT_EQ(ev.back().a, 9);
    EXPECT_EQ(box.dropped(), 6u);
}

TEST(EventStream, DropNewestKeepsThePrefix)
{
    trace::Tracer chrome(4);
    recordSeries(chrome, Kind::ColdXlate, 10);
    // A black-box-only kind never reaches the Chrome ring, so it can
    // neither occupy a slot nor count as a drop.
    chrome.record({Kind::Dispatch, 0, 99.0, 0, 99});
    std::vector<trace::Event> ev = chrome.snapshot();
    ASSERT_EQ(ev.size(), 4u);
    // The first four events survive, the last six were refused.
    EXPECT_EQ(ev.front().a, 0);
    EXPECT_EQ(ev.back().a, 3);
    EXPECT_EQ(chrome.dropped(), 6u);
}

TEST(FlightRecorder, SnapshotMergesSortedByTime)
{
    trace::Tracer box(16, trace::View::BlackBox);
    box.record({Kind::HotCommit, 0, 30.0, 0, 4});
    box.record({Kind::Dispatch, 0, 10.0, 0, 1});
    box.record({Kind::ColdXlate, 0, 20.0, 0, 2});
    // A worker session planned over 5..25 is stamped at its ready time.
    box.record({Kind::WorkerSession, 1, 5.0, 20.0, 3});
    std::vector<trace::Event> ev = box.snapshot();
    ASSERT_EQ(ev.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(ev[i].a, i + 1);
    EXPECT_EQ(ev[2].ts, 25.0);
}

TEST(FlightRecorder, KindNamesAreStable)
{
    // The run report's flight exports these names; renaming one is a
    // consumer-visible break and must be deliberate.
    auto box = [](Kind k) { return trace::kindInfo(k).box; };
    EXPECT_STREQ(box(Kind::Dispatch), "dispatch");
    EXPECT_STREQ(box(Kind::HotCommit), "hot_commit");
    EXPECT_STREQ(box(Kind::FaultInject), "fault_inject");
    EXPECT_STREQ(box(Kind::SentinelShift), "sentinel_shift");
    // Guest-lane and worker-lane shapes of one step share their name.
    EXPECT_STREQ(box(Kind::WorkerFault), "fault_inject");
    EXPECT_STREQ(box(Kind::HotSession), "hot_session");
    EXPECT_STREQ(box(Kind::WorkerSession), "hot_session");
}

TEST(ProvenanceLedger, TimelineIsBoundedPerEip)
{
    core::ProvenanceLedger led(2);
    for (int i = 0; i < 5; ++i)
        led.note(0x1000, core::ProvState::Cold, core::ProvCause::None,
                 i, 0, i);
    const BoundedRing<core::ProvEvent> *tl = led.timeline(0x1000);
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->size(), 2u);
    EXPECT_EQ(led.timeline(0x2000), nullptr);
    // Oldest dropped: the survivors are the last two notes.
    auto it = tl->begin();
    EXPECT_EQ(it->block_id, 3);
}

// ----- zero-overhead / bit-exactness ------------------------------------

TEST(FlightRecorder, RecorderOnOffIsBitExactIncludingCycles)
{
    guest::Image img = hotLoopProgram();
    for (unsigned threads : {0u, 4u}) {
        harness::TranslatedRun on = harness::runTranslated(
            img, btlib::OsAbi::Linux, hotOpts(threads, true));
        harness::TranslatedRun off = harness::runTranslated(
            img, btlib::OsAbi::Linux, hotOpts(threads, false));
        ASSERT_TRUE(on.outcome.exited);
        ASSERT_TRUE(off.outcome.exited);
        EXPECT_EQ(on.outcome.exit_code, off.outcome.exit_code);
        std::string why;
        EXPECT_TRUE(on.outcome.final_state.equalsArch(
            off.outcome.final_state, &why))
            << "threads " << threads << ": " << why;
        // The acceptance bar: zero simulated-cycle delta.
        EXPECT_DOUBLE_EQ(on.outcome.cycles, off.outcome.cycles)
            << "threads " << threads;
        EXPECT_NE(on.runtime->blackBox(), nullptr);
        EXPECT_EQ(off.runtime->blackBox(), nullptr);
        EXPECT_GT(on.runtime->blackBox()->snapshot().size(), 0u);
    }
}

// ----- merged-order determinism -----------------------------------------

/** The merged flight of one run, reduced to a comparable string. */
std::string
flightFingerprint(const trace::Tracer &box)
{
    std::string out;
    for (const trace::Event &e : box.snapshot()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s lane=%u ts=%.0f %lld %lld "
                      "%lld\n",
                      trace::kindInfo(e.kind).box, e.lane, e.ts,
                      static_cast<long long>(e.a),
                      static_cast<long long>(e.b),
                      static_cast<long long>(e.c));
        out += buf;
    }
    return out;
}

TEST(FlightRecorder, MergedOrderIsDeterministicAcrossThreadCounts)
{
    guest::Image img = hotLoopProgram();
    for (unsigned threads : {0u, 1u, 4u}) {
        harness::TranslatedRun a = harness::runTranslated(
            img, btlib::OsAbi::Linux, hotOpts(threads));
        harness::TranslatedRun b = harness::runTranslated(
            img, btlib::OsAbi::Linux, hotOpts(threads));
        ASSERT_TRUE(a.outcome.exited);
        ASSERT_TRUE(b.outcome.exited);
        ASSERT_NE(a.runtime->blackBox(), nullptr);
        ASSERT_NE(b.runtime->blackBox(), nullptr);
        // Identical runs must replay to identical merged flights:
        // worker events carry planned times and planned slots.
        EXPECT_EQ(flightFingerprint(*a.runtime->blackBox()),
                  flightFingerprint(*b.runtime->blackBox()))
            << "threads " << threads;
    }
}

/** Every field of every event a view kept, one line per event. */
std::string
encodeView(const trace::Tracer &t)
{
    std::string out;
    for (const trace::Event &e : t.snapshot()) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%u lane=%u ts=%.0f dur=%.0f %lld "
                      "%lld %lld %lld\n",
                      static_cast<unsigned>(e.kind), e.lane, e.ts, e.dur,
                      static_cast<long long>(e.a),
                      static_cast<long long>(e.b),
                      static_cast<long long>(e.c),
                      static_cast<long long>(e.d));
        out += buf;
    }
    return out;
}

TEST(WorkerReplay, BoundedViewsHoldTheirCapacityAndReplay)
{
    // gcc queues hundreds of sessions to four workers, so both small
    // rings overflow. A ring holds N events per view, whatever the
    // number of workers, and the runtime records every event in a
    // fixed order, so what survives the overflow is the same on every
    // run.
    const guest::Workload *gcc = nullptr;
    std::vector<guest::Workload> suite = guest::specIntSuite();
    for (const guest::Workload &w : suite)
        if (w.name == "gcc")
            gcc = &w;
    ASSERT_NE(gcc, nullptr);

    constexpr size_t box_events = 16, chrome_events = 64;
    std::string box_seen[2], chrome_seen[2];
    uint64_t box_dropped[2], chrome_dropped[2];
    for (int run = 0; run < 2; ++run) {
        trace::Tracer chrome(chrome_events);
        core::Options o = hotOpts(4);
        o.flight_ring_capacity = box_events;
        o.trace = &chrome;
        harness::TranslatedRun r =
            harness::runTranslated(gcc->image, gcc->params.abi, o);
        ASSERT_TRUE(r.outcome.exited);
        EXPECT_GT(r.runtime->stats().get("hot.enqueued"), 100u);
        const trace::Tracer *box = r.runtime->blackBox();
        ASSERT_NE(box, nullptr);
        EXPECT_EQ(box->snapshot().size(), box_events) << "run " << run;
        EXPECT_EQ(chrome.snapshot().size(), chrome_events) << "run " << run;
        box_seen[run] = encodeView(*box);
        chrome_seen[run] = encodeView(chrome);
        box_dropped[run] = box->dropped();
        chrome_dropped[run] = chrome.dropped();
    }
    EXPECT_EQ(box_seen[0], box_seen[1]);
    EXPECT_EQ(chrome_seen[0], chrome_seen[1]);
    EXPECT_EQ(box_dropped[0], box_dropped[1]);
    EXPECT_EQ(chrome_dropped[0], chrome_dropped[1]);
}

// ----- one stream, two views --------------------------------------------

/** How many events a view kept, by the name @p view exports. */
std::map<std::string, uint64_t>
countByName(const trace::Tracer &t, trace::View view)
{
    std::map<std::string, uint64_t> n;
    for (const trace::Event &e : t.snapshot()) {
        const trace::KindInfo &k = trace::kindInfo(e.kind);
        ++n[view == trace::View::Chrome ? k.chrome : k.box];
    }
    return n;
}

/**
 * Run @p w with a Chrome capture and a black box big enough that
 * neither ring drops, and require every step both views record to
 * appear equally often in each. Returns the Chrome counts.
 */
std::map<std::string, uint64_t>
expectOneStream(const guest::Workload &w, core::Options o)
{
    trace::Tracer chrome;
    o.trace = &chrome;
    o.flight_ring_capacity = 1 << 16;
    harness::TranslatedRun r =
        harness::runTranslated(w.image, w.params.abi, o);
    EXPECT_TRUE(r.outcome.exited);
    const trace::Tracer *box = r.runtime->blackBox();
    EXPECT_NE(box, nullptr);
    if (!box)
        return {};
    EXPECT_EQ(chrome.dropped(), 0u);
    EXPECT_EQ(box->dropped(), 0u);

    std::map<std::string, uint64_t> in_chrome =
        countByName(chrome, trace::View::Chrome);
    std::map<std::string, uint64_t> in_box =
        countByName(*box, trace::View::BlackBox);
    const struct
    {
        const char *chrome;
        const char *box;
    } steps[] = {{"cold_translate", "cold_xlate"},
                 {"hot_emit", "hot_session"},
                 {"smc_invalidate", "smc_invalidate"},
                 {"cache_flush", "cache_flush"},
                 {"fault_fire", "fault_inject"}};
    for (const auto &s : steps)
        EXPECT_EQ(in_chrome[s.chrome], in_box[s.box])
            << w.name << " threads " << o.translation_threads << ": "
            << s.chrome << " vs " << s.box;
    return in_chrome;
}

TEST(EventStream, BothViewsCountTheSameSteps)
{
    guest::WorkloadParams gp;
    gp.outer_iters = 60;
    gp.size = 24000;
    guest::Workload gzip = guest::buildStream("gzip", gp);
    for (unsigned threads : {0u, 4u}) {
        core::Options o = hotOpts(threads);
        o.fault.site(FaultSite::HotXlateAbort, 512);
        o.fault.seed = 7;
        std::map<std::string, uint64_t> n = expectOneStream(gzip, o);
        EXPECT_GT(n["cold_translate"], 0u);
        EXPECT_GT(n["hot_emit"], 0u);
        EXPECT_GT(n["fault_fire"], 0u) << "threads " << threads;
    }

    guest::WorkloadParams bp;
    bp.outer_iters = 12;
    bp.size = 4000;
    bp.code_copies = 12;
    guest::Workload bigcode = guest::buildBigCode("bigcode", bp);
    core::Options o = hotOpts(0);
    o.code_cache_capacity = 1024;
    o.cache_headroom = 512;
    std::map<std::string, uint64_t> n = expectOneStream(bigcode, o);
    EXPECT_GT(n["cache_flush"], 0u);
}

// ----- provenance through a real run ------------------------------------

TEST(ProvenanceLedger, HotBlockLifecycleIsRecorded)
{
    guest::Image img = hotLoopProgram();
    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux, hotOpts(4));
    ASSERT_TRUE(tr.outcome.exited);
    const core::ProvenanceLedger *led = tr.runtime->provenance();
    ASSERT_NE(led, nullptr);

    const BoundedRing<core::ProvEvent> *tl =
        led->timeline(Layout::code_base);
    ASSERT_NE(tl, nullptr) << "entry point never entered the ledger";
    // The entry block is decoded cold; the hot candidate is the loop
    // head further in, so scan the whole ledger for the hot states.
    bool decoded = false, cold = false, queued = false,
         published = false;
    for (const core::ProvEvent &e : *tl) {
        decoded |= e.state == core::ProvState::Decoded;
        cold |= e.state == core::ProvState::Cold;
    }
    for (const auto &[eip, ring] : led->all()) {
        for (const core::ProvEvent &e : ring) {
            queued |= e.state == core::ProvState::HotQueued;
            published |= e.state == core::ProvState::Published;
        }
    }
    EXPECT_TRUE(decoded);
    EXPECT_TRUE(cold);
    EXPECT_TRUE(queued);
    EXPECT_TRUE(published) << "hot commit never reached the ledger";
}

// ----- telemetry snapshots ----------------------------------------------

TEST(Metrics, SnapshotJsonIsWellFormed)
{
    metrics::Registry reg;
    double g = 42.0;
    reg.gauge("answer", [&] { return g; });
    StatGroup sg;
    sg.add("lookups", 7);
    reg.counters("demo", &sg);

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(reg.snapshotJson(123), &root,
                                    &error))
        << error;
    EXPECT_EQ(root.strOr("kind", ""), "el-metrics");
    EXPECT_EQ(root.numberOr("version", 0), 2);
    EXPECT_EQ(root.numberOr("cycle", 0), 123);
    const json::Value *gauges = root.find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->numberOr("answer", 0), 42.0);
    const json::Value *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("demo.lookups", 0), 7);
}

TEST(Metrics, MaybeEmitHonorsThePeriod)
{
    metrics::Registry reg;
    reg.setPeriod(100);
    // No output file open: maybeEmit must be a no-op, not a crash.
    reg.maybeEmit(1000);
    EXPECT_EQ(reg.snapshots(), 0u);
}

TEST(Metrics, RuntimeGaugesFollowTheirSources)
{
    // The registry is the run's only sampler: the profiler's event
    // count and the injector's fire count are gauges there, present
    // exactly when their source is attached.
    guest::Image img = hotLoopProgram();
    for (bool sources : {true, false}) {
        metrics::Registry reg;
        prof::Profiler profiler;
        core::Options o = hotOpts(0);
        o.metrics = &reg;
        if (sources) {
            o.profiler = &profiler;
            o.fault.seed = 7;
            o.fault.site(FaultSite::HotXlateAbort, 1024);
        }
        harness::TranslatedRun tr =
            harness::runTranslated(img, btlib::OsAbi::Linux, o);
        ASSERT_TRUE(tr.outcome.exited);

        json::Value root;
        std::string error;
        ASSERT_TRUE(json::Parser::parse(
            reg.snapshotJson(tr.outcome.cycles), &root, &error))
            << error;
        const json::Value *gauges = root.find("gauges");
        ASSERT_NE(gauges, nullptr);
        EXPECT_NE(gauges->find("dispatch_lookups"), nullptr);
        if (!sources) {
            EXPECT_EQ(gauges->find("profile_events"), nullptr);
            EXPECT_EQ(gauges->find("fault_fires"), nullptr);
            continue;
        }
        ASSERT_NE(gauges->find("profile_events"), nullptr);
        ASSERT_NE(gauges->find("fault_fires"), nullptr);
        EXPECT_GT(profiler.eventCount(), 0u);
        EXPECT_EQ(gauges->numberOr("profile_events", -1),
                  static_cast<double>(profiler.eventCount()));
        const FaultInjector *fi = tr.runtime->faultInjector();
        ASSERT_NE(fi, nullptr);
        EXPECT_GT(fi->totalFires(), 0u);
        EXPECT_EQ(gauges->numberOr("fault_fires", -1),
                  static_cast<double>(fi->totalFires()));
    }
}

TEST(Metrics, WorkerFaultGaugeRepeatsRunToRun)
{
    // A pipelined session draws its injected aborts from its own stream
    // and counts them when it runs, at enqueue, so the fault_fires
    // gauge (and every other) follows the same series on every run.
    const guest::Workload *gcc = nullptr;
    std::vector<guest::Workload> suite = guest::specIntSuite();
    for (const guest::Workload &w : suite)
        if (w.name == "gcc")
            gcc = &w;
    ASSERT_NE(gcc, nullptr);

    std::string stream[2];
    for (int run = 0; run < 2; ++run) {
        std::string path = ::testing::TempDir() +
                           "el_worker_fault_metrics_" +
                           std::to_string(run) + ".ndjson";
        metrics::Registry reg;
        ASSERT_TRUE(reg.openOutput(path));
        reg.setPeriod(50000);
        core::Options o = hotOpts(4);
        o.metrics = &reg;
        o.fault.seed = 7;
        o.fault.site(FaultSite::HotXlateAbort, 300);
        harness::TranslatedRun r =
            harness::runTranslated(gcc->image, gcc->params.abi, o);
        ASSERT_TRUE(r.outcome.exited);
        const FaultInjector *fi = r.runtime->faultInjector();
        ASSERT_NE(fi, nullptr);
        EXPECT_GT(fi->fires(FaultSite::HotXlateAbort), 0u);
        EXPECT_GT(reg.snapshots(), 1u);
        reg.closeOutput();
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        stream[run] = ss.str();
        std::remove(path.c_str());
    }
    EXPECT_FALSE(stream[0].empty());
    EXPECT_EQ(stream[0], stream[1]);
}

// ----- the run report's account of how the run ended -------------------

TEST(RunReport, CleanRunReportIsSchemaValid)
{
    guest::Image img = hotLoopProgram();
    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux, hotOpts(4));
    ASSERT_TRUE(tr.outcome.exited);

    core::ReportInfo info;
    info.workload = "flight_hotloop";
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(core::runReportJson(*tr.runtime, info),
                                    &root, &error))
        << error;
    EXPECT_EQ(root.strOr("kind", ""), "el-report");
    EXPECT_EQ(root.numberOr("version", 0), 2);
    const json::Value *exit = root.find("exit");
    ASSERT_NE(exit, nullptr);
    EXPECT_EQ(exit->strOr("class", ""), "ok");
    EXPECT_EQ(exit->find("init_error"), nullptr);
    // A live runtime's report carries the machine sections too.
    EXPECT_NE(root.find("attribution"), nullptr);
    const json::Value *fl = root.find("flight");
    ASSERT_NE(fl, nullptr);
    const json::Value *events = fl->find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GT(events->arr.size(), 0u);
    const json::Value *prov = root.find("provenance");
    ASSERT_NE(prov, nullptr);
    ASSERT_TRUE(prov->isArray());
    // The hot loop must appear with its translation in the final hot
    // set and a published step in its timeline.
    bool found_hot = false;
    for (const json::Value &entry : prov->arr) {
        const json::Value *hot = entry.find("in_hot_set");
        if (hot && hot->kind == json::Value::Kind::Bool && hot->b)
            found_hot = true;
    }
    EXPECT_TRUE(found_hot);
}

TEST(RunReport, ChaosRunNamesTheInjectedFaultSite)
{
    // Directed chaos: force hot-session aborts and require the report
    // to convict the injected site by name, with the abort visible in
    // both the flight tail and the victim's provenance chain.
    guest::Image img = hotLoopProgram();
    core::Options opts = hotOpts(4);
    opts.fault.seed = 7;
    opts.fault.site(FaultSite::HotXlateAbort, 1024);
    harness::TranslatedRun tr =
        harness::runTranslated(img, btlib::OsAbi::Linux, opts);
    ASSERT_TRUE(tr.outcome.exited);
    ASSERT_NE(tr.runtime->faultInjector(), nullptr);
    ASSERT_GT(tr.runtime->faultInjector()->totalFires(), 0u);

    core::ReportInfo info;
    info.workload = "flight_hotloop";
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::Parser::parse(core::runReportJson(*tr.runtime, info),
                                    &root, &error))
        << error;

    const json::Value *fi = root.find("fault_injection");
    ASSERT_NE(fi, nullptr) << "report lost the injection config";
    EXPECT_EQ(fi->numberOr("seed", 0), 7);
    const json::Value *sites = fi->find("sites");
    ASSERT_NE(sites, nullptr);
    bool named = false;
    for (const json::Value &s : sites->arr)
        if (s.strOr("site", "") == "hot_xlate_abort" &&
            s.numberOr("fires", 0) > 0)
            named = true;
    EXPECT_TRUE(named)
        << "report does not name the injected fault site";

    // The flight tail carries the worker-lane injection events...
    const json::Value *events = root.find("flight")->find("events");
    ASSERT_NE(events, nullptr);
    bool injected_event = false;
    for (const json::Value &e : events->arr)
        if (e.strOr("kind", "") == "fault_inject")
            injected_event = true;
    EXPECT_TRUE(injected_event);

    // ...and the victim's provenance chain records the aborted
    // session.
    const core::ProvenanceLedger *led = tr.runtime->provenance();
    ASSERT_NE(led, nullptr);
    // The aborted session belongs to the hot loop head, not the image
    // entry block, so scan every timeline for the abort step.
    bool aborted = false;
    for (const auto &[eip, ring] : led->all())
        for (const core::ProvEvent &e : ring)
            aborted |= e.cause == core::ProvCause::SessionAbort;
    EXPECT_TRUE(aborted)
        << "no session_abort step in any timeline";
}

} // namespace
} // namespace el
