/**
 * @file
 * One translated run of one program, driven layer by layer through the
 * public API (guest load, OS personality, Runtime construction,
 * Runtime::run), checked against the oracle and reduced to the
 * simulated numbers that must repeat bit for bit.
 */

#include <fstream>

#include "bench.hh"
#include "core/audit.hh"
#include "core/report.hh"
#include "harness/exec.hh"
#include "persist/store.hh"
#include "support/buildinfo.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/profile.hh"
#include "support/trace.hh"

namespace perfbench
{

using namespace el;

namespace
{

/** el_run's default --metrics-period. */
constexpr uint64_t metrics_period = 50000;

SimRecord
simRecordOf(core::Runtime &rt, const Expected &got)
{
    SimRecord r;
    ipf::Machine &m = rt.machine();
    const ipf::BucketStats &bs = m.stats();
    r["cycles"] = m.totalCycles();
    r["cycles.synthetic"] = m.syntheticCycles();
    for (size_t b = 0; b < bs.cycles.size(); ++b)
        r[std::string("bucket.") +
          ipf::bucketName(static_cast<ipf::Bucket>(b))] = bs.cycles[b];
    core::Attribution a = core::attributionOf(rt);
    r["attr.hot_code"] = a.hot_code;
    r["attr.cold_code"] = a.cold_code;
    r["attr.btgeneric"] = a.btgeneric;
    r["attr.fault_handling"] = a.fault_handling;
    r["attr.native"] = a.native;
    r["attr.idle"] = a.idle;
    r["code.high_water"] = static_cast<double>(rt.codeCache().highWater());
    r["ipf.retired"] = static_cast<double>(m.retired());
    r["ipf.misaligned"] = static_cast<double>(m.misalignedAccesses());
    r["dispatch.lookups"] = static_cast<double>(rt.dispatchLookups());
    const auto &dc = m.dcache().stats();
    r["l1d.accesses"] = static_cast<double>(dc.front().accesses);
    r["l1d.misses"] = static_cast<double>(dc.front().misses);
    r["llc.accesses"] = static_cast<double>(dc.back().accesses);
    r["llc.misses"] = static_cast<double>(dc.back().misses);
    for (const char *k :
         {"xlate.cold_blocks", "xlate.cold_insns", "xlate.cold_ipf_insns",
          "xlate.hot_blocks", "xlate.hot_insns", "xlate.hot_ipf_insns",
          "sched.groups", "sched.loads_speculated"})
        r[k] = static_cast<double>(rt.translator().stats.get(k));
    for (const char *k :
         {"hot.sessions", "hot.stall_cycles", "guard.tos_miss",
          "guard.tag_miss", "guard.domain_miss", "guard.format_miss"})
        r[k] = static_cast<double>(rt.stats().get(k));
    r["guest.exit_code"] = got.exit_code;
    return r;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    f << text;
    return static_cast<bool>(f);
}

} // namespace

RunResult
runTranslated(const Program &p, int index, const RunConfig &cfg,
              Spans &spans, bool keep)
{
    const guest::Workload &w = p.workload;
    core::Options options;
    options.fault = cfg.fault;
    if (cfg.max_run_cycles)
        options.max_run_cycles = cfg.max_run_cycles;

    // The observers el_run attaches for --trace-out, --profile-out,
    // --metrics-out and --audit. Declared before the runtime so they
    // outlive it.
    trace::Tracer tracer;
    prof::Profiler profiler;
    metrics::Registry registry;
    std::string stem = cfg.artifact_dir + "/" + w.name;
    buildinfo::ProducerStamp stamp;
    auto run_scope = spans.scope("bench.translated_run", index);
    Clock::time_point t0 = Clock::now();
    if (cfg.observed) {
        auto sc = spans.scope("support.observers_attach", index);
        options.trace = &tracer;
        options.profiler = &profiler;
        options.collect_block_cycles = true;
        options.audit = true;
        if (!registry.openOutput(stem + ".metrics.ndjson"))
            el_panic("cannot write %s.metrics.ndjson", stem.c_str());
        registry.setPeriod(metrics_period);
        options.metrics = &registry;
        stamp = buildinfo::ProducerStamp::make(
            "perfbench", persist::fingerprintOf(w.image, options).hex());
        registry.setProducer(stamp);
    }

    auto live = std::make_unique<Live>();
    live->memory = std::make_unique<mem::Memory>();
    uint32_t esp;
    {
        auto sc = spans.scope("guest.load", index);
        esp = guest::load(w.image, *live->memory);
        live->memory->clearDirty();
    }
    {
        auto sc = spans.scope("btlib.make_os", index);
        live->os = harness::makeOs(w.params.abi, *live->memory);
    }
    {
        auto sc = spans.scope("core.runtime_ctor", index);
        live->runtime = std::make_unique<core::Runtime>(
            *live->memory, live->os->vtable(), options);
    }
    core::Runtime &rt = *live->runtime;
    el_assert(rt.initOk(), "runtime init failed: %s",
              rt.initError().c_str());
    live->os->setCycleSink([&rt](ipf::Bucket b, double c) {
        rt.machine().chargeCycles(b, c);
    });

    ia32::State state;
    state.eip = w.image.entry;
    state.gpr[ia32::RegEsp] = esp;
    RunResult res;
    core::RunResult rr;
    {
        auto sc = spans.scope("core.runtime_run", index);
        Clock::time_point r0 = Clock::now();
        rr = rt.run(state);
        rt.quiesce();
        res.run_s = secondsSince(r0);
    }

    audit::Result audit_result;
    if (cfg.observed) {
        auto sc = spans.scope("support.observers_emit", index);
        bool ok = writeFile(stem + ".trace.json", tracer.chromeJson()) &&
                  writeFile(stem + ".profile.json",
                            core::profileJson(rt, profiler, w.name, &stamp));
        el_assert(ok, "cannot write artifacts under %s",
                  cfg.artifact_dir.c_str());
        registry.emit(rt.machine().totalCycles());
        core::AuditContext actx;
        actx.workload = w.name;
        actx.producer = &stamp;
        audit_result = rt.auditFindings();
        audit_result.merge(core::auditRun(rt, actx));
        res.dropped_events = tracer.dropped();
    }
    res.wall_s = secondsSince(t0);

    Expected got;
    got.exited = rr.kind == core::RunResult::Kind::Exit;
    got.exit_code = rr.exit_code;
    got.console_hash = hashBytes(live->os->consoleOutput());
    got.state_hash = archHash(state);
    res.match = true;
    auto differ = [&res](const char *why) {
        if (res.match)
            res.why = why;
        res.match = false;
    };
    if (got.exited != p.expected.exited)
        differ(got.exited ? "exited, oracle did not"
                          : "did not exit (fault or cycle limit)");
    if (got.exit_code != p.expected.exit_code)
        differ("exit code");
    if (got.console_hash != p.expected.console_hash)
        differ("console output");
    if (got.state_hash != p.expected.state_hash)
        differ("architectural state");
    if (!audit_result.ok())
        differ("accounting audit");

    res.sim = simRecordOf(rt, got);
    if (keep) {
        // The kept runtime must not reach the observers destroyed below.
        el_assert(!cfg.observed, "only plain runs are kept");
        res.live = std::move(live);
    }
    return res;
}

double
setupOnce(const Program &p, int index, Spans &spans, double *build_s)
{
    auto setup_scope = spans.scope("bench.setup", index);
    Clock::time_point t0 = Clock::now();
    guest::Workload w;
    {
        auto sc = spans.scope("guest.build", index);
        w = buildImage(p.workload);
    }
    *build_s += secondsSince(t0);
    mem::Memory memory;
    guest::load(w.image, memory);
    memory.clearDirty();
    auto os = harness::makeOs(w.params.abi, memory);
    core::Runtime rt(memory, os->vtable(), core::Options{});
    el_assert(rt.initOk(), "runtime init failed");
    return secondsSince(t0);
}

} // namespace perfbench
