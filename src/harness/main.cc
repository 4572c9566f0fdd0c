/**
 * @file
 * `el_run`: the command-line front end of the execution harness.
 *
 * Runs one synthetic workload personality under the IA-32 EL runtime
 * with the observability layer wired up: `--trace-out` captures the
 * translation-lifecycle trace as Chrome trace-event JSON (loadable in
 * chrome://tracing or ui.perfetto.dev) and `--report-json` writes the
 * machine-readable run report: Figure-6 cycle attribution, per-block
 * cycle rows, and why the run ended (flight tail, provenance, sentinel
 * ledger, injected faults). An abnormal run writes that report to
 * ./postmortem.json even when not asked. `--validate-trace` re-reads a
 * trace file and checks it against the Chrome trace-event shape (used
 * by CI so the artifact upload never ships a malformed file).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "btlib/abi.hh"
#include "core/audit.hh"
#include "core/checkpoint.hh"
#include "core/report.hh"
#include "guest/workloads.hh"
#include "ia32/assembler.hh"
#include "harness/cli.hh"
#include "harness/exec.hh"
#include "persist/store.hh"
#include "support/buildinfo.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/profile.hh"
#include "support/sentinel.hh"
#include "support/trace.hh"

namespace
{

using namespace el;

// Exit codes (documented in README.md). They answer "whose fault was
// it": the caller's (usage), the environment's (I/O), the guest's
// (fault), the translator's (internal), or a caught miscompile
// (divergence — the sentinel's verdict takes precedence because it
// means translated execution was wrong, whatever else happened).
// exit_audit is weaker than all of those: the guest ran and exited
// cleanly but the accounting books did not close, so the run's
// *numbers* cannot be trusted — it only ever upgrades an exit_ok.
constexpr int exit_ok = 0;
constexpr int exit_usage = 1;
constexpr int exit_io = 2;
constexpr int exit_guest_fault = 10;
constexpr int exit_internal = 20;
constexpr int exit_divergence = 30;
constexpr int exit_audit = 40;

// Whether --audit defaults on; CMake sets this to 1 in Debug builds
// so every local debug run and the sanitizer CI jobs audit for free.
#ifndef EL_AUDIT_DEFAULT
#define EL_AUDIT_DEFAULT 0
#endif

void
usage()
{
    std::fprintf(
        stderr,
        "usage: el_run [options]\n"
        "  --workload=<name>      personality to run (default: gzip)\n"
        "  --list                 list known workloads and exit\n"
        "  --threads=<n>          simulated hot-translation workers\n"
        "                         (0-%u; default 0 = inline sessions);\n"
        "                         a session's cycles go to a worker and\n"
        "                         its result is adopted once guest time\n"
        "                         reaches the session's ready cycle\n"
        "  --heat-threshold=<n>   block-use count registering hot\n"
        "  --hot-batch=<n>        candidates batched per session\n"
        "  --cache-capacity=<n>   bound the code cache (0 = unbounded)\n"
        "  --cache-dir=<dir>      persistent translation-artifact store,\n"
        "                         one <fingerprint>.elstore file: load\n"
        "                         matching hot artifacts before the run\n"
        "                         (warm start), append new ones to the\n"
        "                         file during it, and compact it at exit\n"
        "  --checkpoint-dir=<dir> periodic in-run checkpoints of guest\n"
        "                         state (registers, dirty memory pages,\n"
        "                         OS state); one rolling file, replaced\n"
        "                         atomically on each capture\n"
        "  --checkpoint-period=<n> simulated cycles between captures\n"
        "                         (default 1000000)\n"
        "  --resume               restore the checkpoint from\n"
        "                         --checkpoint-dir and continue the\n"
        "                         interrupted run; a missing or corrupt\n"
        "                         checkpoint warns and starts cold\n"
        "  --fault=<site>:<p>     fire <site> with p/1024 probability\n"
        "                         (sites: btos_alloc, cold_xlate_abort,\n"
        "                         hot_xlate_abort, cache_exhaust,\n"
        "                         guest_fault_storm, miscompile,\n"
        "                         store_corrupt, acct_skew; crash\n"
        "                         points that\n"
        "                         _exit(43) the process mid-protocol:\n"
        "                         crash_journal_append,\n"
        "                         crash_store_rename, crash_checkpoint,\n"
        "                         crash_adopt)\n"
        "  --fault-seed=<n>       fault-injection PRNG seed\n"
        "  --selfcheck=<rate>     shadow-execute every <rate>-th\n"
        "                         dispatched region through the\n"
        "                         interpreter oracle; divergences\n"
        "                         quarantine the translation and el_run\n"
        "                         exits 30 (1 = check everything)\n"
        "  --trace-out=<file>     write Chrome trace-event JSON\n"
        "  --report-json=<file>   write the machine-readable run report\n"
        "                         (attribution, stats, flight tail,\n"
        "                         provenance, sentinel ledger, injected\n"
        "                         faults); without it, a run that exits\n"
        "                         10/20/30/40 or in which an injected\n"
        "                         fault fired writes it to\n"
        "                         ./postmortem.json\n"
        "  --profile-out=<file>   write the execution profile JSON\n"
        "                         (render it with el_prof)\n"
        "  --validate-trace=<f>   validate a trace file and exit\n"
        "  --metrics-out=<file>   write live telemetry snapshots as\n"
        "                         NDJSON (one el-metrics object per\n"
        "                         sampling period; el_prof --csv\n"
        "                         renders its gauges)\n"
        "  --metrics-period=<n>   snapshot period, simulated cycles\n"
        "                         (default 50000)\n"
        "  --audit                cross-check the run's accounting:\n"
        "                         periodic cycle-closure audits during\n"
        "                         the run plus a full audit (flight\n"
        "                         cross-counts, provenance legality,\n"
        "                         schema self-checks) at exit;\n"
        "                         violations exit 40 (default on in\n"
        "                         Debug builds)\n"
        "  --no-audit             disable the accounting audit\n"
        "  --no-flight            disable the always-on flight\n"
        "                         recorder + provenance ledger (A/B\n"
        "                         overhead comparisons)\n"
        "  --flight-ring=<n>      flight ring capacity in events\n"
        "                         (default 1024)\n"
        "  --log-level=<l>        err|warn|info|debug (default warn;\n"
        "                         EL_LOG env var is the fallback)\n",
        core::max_translation_threads);
}

/**
 * Diagnostic guest that dereferences an unmapped address with no
 * handler registered: terminates on an unhandled page fault. Exists so
 * the CLI tests (and users) can exercise the guest-failure exit code
 * without fault injection.
 */
guest::Workload
buildFaulter()
{
    ia32::Assembler as(guest::Layout::code_base);
    as.movRI(ia32::RegEbx, 0x40); // unmapped low page
    as.movRM(ia32::RegEax, ia32::memb(ia32::RegEbx, 0));
    as.movRI(ia32::RegEax, 0);
    as.intN(btlib::linux_abi::int_vector); // never reached

    guest::Workload w;
    w.name = "faulter";
    w.kernel = "diagnostic";
    w.image.name = "faulter";
    w.image.entry = guest::Layout::code_base;
    w.image.addCode(guest::Layout::code_base, as.finish());
    w.image.addData(guest::Layout::data_base, 0x1000);
    return w;
}

int
validateTraceFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "el_run: cannot read %s\n", path.c_str());
        return exit_io;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    std::string error;
    if (!trace::validateChromeTrace(ss.str(), &error)) {
        std::fprintf(stderr, "el_run: %s: invalid trace: %s\n",
                     path.c_str(), error.c_str());
        return exit_io;
    }
    std::printf("%s: valid Chrome trace\n", path.c_str());
    return exit_ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name = "gzip";
    std::string trace_out, report_json, profile_out, cache_dir;
    std::string metrics_out;
    std::string checkpoint_dir;
    uint64_t checkpoint_period = 1000000;
    bool resume = false;
    uint64_t metrics_period = 50000;
    core::Options options;
    options.audit = EL_AUDIT_DEFAULT != 0;
    sentinel::Config sentinel_cfg;
    bool list = false;

    initLogLevelFromEnv(); // Explicit --log-level below overrides.

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool ok = true; // false: a value that does not parse
        // An empty value after '=' counts as no match, so "--flag="
        // falls through to the unknown-argument diagnostic below.
        auto value = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            if (arg.compare(0, n, prefix) != 0 || arg.size() == n)
                return nullptr;
            return arg.c_str() + n;
        };
        if (const char *v = value("--workload=")) {
            workload_name = v;
        } else if (arg == "--list") {
            list = true;
        } else if (const char *v = value("--threads=")) {
            ok = harness::parseThreads(v, &options.translation_threads);
        } else if (const char *v = value("--heat-threshold=")) {
            ok = harness::parseNumber(v, &options.heat_threshold);
        } else if (const char *v = value("--hot-batch=")) {
            ok = harness::parseNumber(v, &options.hot_batch);
        } else if (const char *v = value("--cache-capacity=")) {
            ok = harness::parseNumber(v, &options.code_cache_capacity);
        } else if (const char *v = value("--cache-dir=")) {
            cache_dir = v;
        } else if (const char *v = value("--checkpoint-dir=")) {
            checkpoint_dir = v;
        } else if (const char *v = value("--checkpoint-period=")) {
            ok = harness::parseNumber(v, &checkpoint_period);
        } else if (arg == "--resume") {
            resume = true;
        } else if (const char *v = value("--fault=")) {
            ok = harness::parseFaultSpec(v, &options.fault);
        } else if (const char *v = value("--fault-seed=")) {
            ok = harness::parseNumber(v, &options.fault.seed);
        } else if (const char *v = value("--selfcheck=")) {
            ok = harness::parseNumber(v, &sentinel_cfg.selfcheck_rate);
        } else if (const char *v = value("--trace-out=")) {
            trace_out = v;
        } else if (const char *v = value("--report-json=")) {
            report_json = v;
        } else if (const char *v = value("--profile-out=")) {
            profile_out = v;
        } else if (const char *v = value("--validate-trace=")) {
            return validateTraceFile(v);
        } else if (const char *v = value("--metrics-out=")) {
            metrics_out = v;
        } else if (const char *v = value("--metrics-period=")) {
            ok = harness::parseNumber(v, &metrics_period);
        } else if (arg == "--audit") {
            options.audit = true;
        } else if (arg == "--no-audit") {
            options.audit = false;
        } else if (arg == "--no-flight") {
            options.flight_recorder = false;
        } else if (const char *v = value("--flight-ring=")) {
            ok = harness::parseNumber(v, &options.flight_ring_capacity);
        } else if (const char *v = value("--log-level=")) {
            int level = parseLogLevel(v);
            if (level < 0) {
                std::fprintf(stderr,
                             "el_run: bad --log-level '%s' (want "
                             "err|warn|info|debug)\n", v);
                return exit_usage;
            }
            log_level = level;
        } else if (arg == "--help") {
            usage();
            return exit_ok;
        } else {
            std::fprintf(stderr, "el_run: unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return exit_usage;
        }
        if (!ok) {
            std::fprintf(stderr, "el_run: bad value in '%s'\n",
                         arg.c_str());
            return exit_usage;
        }
    }

    std::vector<guest::Workload> suite = harness::allWorkloads();
    suite.push_back(buildFaulter());
    if (list) {
        for (const guest::Workload &w : suite)
            std::printf("%-12s (%s, %s)\n", w.name.c_str(),
                        w.kernel.c_str(),
                        w.params.abi == btlib::OsAbi::Windows
                            ? "windows"
                            : "linux");
        return 0;
    }

    const guest::Workload *wl = nullptr;
    for (const guest::Workload &w : suite)
        if (w.name == workload_name)
            wl = &w;
    if (!wl) {
        std::fprintf(stderr,
                     "el_run: unknown workload '%s' (--list shows "
                     "the suite)\n",
                     workload_name.c_str());
        return exit_usage;
    }

    trace::Tracer tracer;
    if (!trace_out.empty())
        options.trace = &tracer;
    if (!report_json.empty())
        options.collect_block_cycles = true;
    prof::Profiler profiler;
    if (!profile_out.empty()) {
        options.profiler = &profiler;
        // The annotated per-block view joins IPF translation costs.
        options.collect_block_cycles = true;
    }
    sentinel::Sentinel sentinel(sentinel_cfg);
    if (sentinel_cfg.selfcheck_rate > 0)
        options.sentinel = &sentinel;

    metrics::Registry metrics;
    if (!metrics_out.empty()) {
        if (!metrics.openOutput(metrics_out)) {
            std::fprintf(stderr, "el_run: cannot write %s\n",
                         metrics_out.c_str());
            return exit_io;
        }
        metrics.setPeriod(metrics_period);
        options.metrics = &metrics;
    }

    if (resume && checkpoint_dir.empty()) {
        std::fprintf(stderr,
                     "el_run: --resume requires --checkpoint-dir\n");
        return exit_usage;
    }

    // Always computed: every emitted artifact is stamped with the
    // image+options fingerprint so el_diff can refuse to compare runs
    // of different guests.
    persist::Fingerprint fp = persist::fingerprintOf(wl->image, options);
    buildinfo::ProducerStamp stamp =
        buildinfo::ProducerStamp::make("el_run", fp.hex());
    if (!metrics_out.empty())
        metrics.setProducer(stamp);

    persist::ArtifactStore store;
    bool warm = false;
    if (!cache_dir.empty()) {
        store.resetFingerprint(fp);
        // load() replays every frame a predecessor left, crashed or
        // not; openLog() then appends this run's artifacts to the same
        // file (compacting it first only if its scan hit damage).
        warm = store.load(cache_dir);
        if (!store.sealed() && !store.openLog(cache_dir))
            std::fprintf(stderr,
                         "el_run: warning: cannot append to the store "
                         "in %s; artifacts persist only at exit\n",
                         cache_dir.c_str());
        options.persist = &store;
    }

    std::unique_ptr<core::Checkpointer> checkpointer;
    core::CheckpointImage resume_img;
    bool resumed = false;
    if (!checkpoint_dir.empty()) {
        core::CheckpointConfig ck_cfg;
        ck_cfg.dir = checkpoint_dir;
        ck_cfg.period_cycles = checkpoint_period;
        ck_cfg.fp = fp;
        checkpointer = std::make_unique<core::Checkpointer>(ck_cfg);
        options.checkpointer = checkpointer.get();
        if (resume) {
            std::string err;
            if (core::Checkpointer::load(checkpoint_dir, fp,
                                         &resume_img, &err)) {
                resumed = true;
            } else {
                // A bad checkpoint must never make recovery worse
                // than a cold start: warn and run from the beginning.
                std::fprintf(stderr,
                             "el_run: no usable checkpoint (%s); "
                             "starting cold\n", err.c_str());
            }
        }
    }

    harness::TranslatedRun run =
        harness::runTranslated(wl->image, wl->params.abi, options,
                               resumed ? &resume_img : nullptr);

    // Compact (durable rewrite without the appended tail) before the
    // report is written so persist.bytes_written and
    // persist.records_saved appear in the report's stats object.
    if (!cache_dir.empty()) {
        store.closeLog();
        if (!store.compact(cache_dir)) {
            std::fprintf(stderr, "el_run: cannot write store in %s\n",
                         cache_dir.c_str());
            return exit_io;
        }
    }

    core::GuestResult guest = core::guestResultOf(
        run.outcome.final_state, run.outcome.console,
        run.outcome.exited, run.outcome.exit_code);

    if (!trace_out.empty()) {
        if (!tracer.writeChromeJson(trace_out)) {
            std::fprintf(stderr, "el_run: cannot write %s\n",
                         trace_out.c_str());
            return exit_io;
        }
        std::printf("trace:  %s (%zu events, %llu dropped)\n",
                    trace_out.c_str(), tracer.snapshot().size(),
                    static_cast<unsigned long long>(tracer.dropped()));
    }
    if (!profile_out.empty()) {
        if (!core::writeProfile(*run.runtime, profiler, wl->name,
                                profile_out, &stamp)) {
            std::fprintf(stderr, "el_run: cannot write %s\n",
                         profile_out.c_str());
            return exit_io;
        }
        std::printf("profile: %s (%llu events)\n", profile_out.c_str(),
                    static_cast<unsigned long long>(
                        profiler.eventCount()));
    }

    // The merged namespace has no translator counters when init
    // failed, so it is safe to read on every run.
    el::StatGroup all_stats = core::mergedStats(*run.runtime);
    if (!run.runtime->initOk()) {
        // No machine ever ran: there is no exit code or cycle count.
        std::printf("%s: init failed: %s\n", wl->name.c_str(),
                    run.runtime->initError().c_str());
    } else {
        core::Attribution attr = core::attributionOf(*run.runtime);
        std::printf("%s: exit=%d cycles=%.0f\n", wl->name.c_str(),
                    run.outcome.exit_code, run.outcome.cycles);
        std::printf("  cold=%.0f hot=%.0f btgeneric=%.0f fault=%.0f "
                    "native=%.0f idle=%.0f\n",
                    attr.cold_code, attr.hot_code, attr.btgeneric,
                    attr.fault_handling, attr.native, attr.idle);
    }
    if (options.persist) {
        const el::StatGroup &ps = store.stats;
        uint64_t hits = ps.get("persist.hits");
        uint64_t local = all_stats.get("xlate.hot_blocks");
        double reuse = (hits + local)
                           ? 100.0 * static_cast<double>(hits) /
                                 static_cast<double>(hits + local)
                           : 0.0;
        std::printf("  persist: %s hits=%llu misses=%llu loaded=%llu "
                    "reuse=%.1f%% read=%lluB written=%lluB "
                    "records=%zu%s\n",
                    warm ? "warm" : "cold",
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(
                        ps.get("persist.misses")),
                    static_cast<unsigned long long>(
                        ps.get("persist.loaded_blocks")),
                    reuse,
                    static_cast<unsigned long long>(
                        ps.get("persist.bytes_read")),
                    static_cast<unsigned long long>(
                        ps.get("persist.bytes_written")),
                    store.recordCount(),
                    store.sealed() ? " (sealed)" : "");
    }
    if (checkpointer) {
        std::printf("  checkpoint: %s captures=%llu bytes=%llu "
                    "failed=%llu%s",
                    resumed ? "resumed" : "fresh",
                    static_cast<unsigned long long>(
                        checkpointer->captures()),
                    static_cast<unsigned long long>(
                        checkpointer->stats.get("ckpt.bytes")),
                    static_cast<unsigned long long>(
                        checkpointer->stats.get("ckpt.failed")),
                    resumed ? "" : "\n");
        if (resumed)
            std::printf(" from seq=%llu cycles=%.0f\n",
                        static_cast<unsigned long long>(resume_img.seq),
                        resume_img.cycles);
    }
    if (options.sentinel) {
        std::printf("  selfcheck: rate=1/%u regions=%llu checked=%llu "
                    "passed=%llu divergences=%llu quarantined=%llu\n",
                    sentinel_cfg.selfcheck_rate,
                    static_cast<unsigned long long>(
                        sentinel.regionsSeen()),
                    static_cast<unsigned long long>(
                        all_stats.get("sentinel.checked")),
                    static_cast<unsigned long long>(
                        all_stats.get("sentinel.passed")),
                    static_cast<unsigned long long>(
                        sentinel.totalDivergences()),
                    static_cast<unsigned long long>(
                        all_stats.get("sentinel.blocks_quarantined")));
        for (const sentinel::DivergenceInfo &d : sentinel.divergences())
            std::printf("  divergence: region=%llu checkpoint=%#x "
                        "boundary=%#x block=%d ip=[%#x,%#x)\n",
                        static_cast<unsigned long long>(d.region_index),
                        d.checkpoint_eip, d.boundary_eip, d.first_block,
                        d.ip_lo, d.ip_hi);
    }

    if (run.outcome.faulted)
        std::fprintf(stderr, "el_run: guest fault: %s\n",
                     run.outcome.fault.toString().c_str());
    if (run.outcome.internal_error)
        std::fprintf(stderr, "el_run: internal error: %s\n",
                     run.outcome.internal_reason.c_str());

    if (!metrics_out.empty()) {
        // One final snapshot at the terminal cycle, so short runs that
        // never crossed a period boundary still produce a line.
        metrics.emit(run.outcome.cycles);
        std::printf("metrics: %s (%llu snapshots)\n",
                    metrics_out.c_str(),
                    static_cast<unsigned long long>(
                        metrics.snapshots()));
    }

    int code = exit_ok;
    const char *exit_class = "ok";
    if (options.sentinel && sentinel.totalDivergences() > 0) {
        code = exit_divergence;
        exit_class = "divergence";
    } else if (run.outcome.faulted) {
        code = exit_guest_fault;
        exit_class = "guest_fault";
    } else if (!run.outcome.exited) {
        code = exit_internal;
        exit_class = "internal";
    }

    if (options.audit) {
        // Everything the in-run closure audits accumulated, plus the
        // full cross-view audit (flight counts, provenance legality,
        // schema self-checks) — legal here because runTranslated()
        // already quiesced the pipeline. An audit failure only ever
        // *upgrades* a clean exit: a guest fault or divergence is
        // strictly more important than untrustworthy numbers.
        core::AuditContext actx;
        actx.workload = wl->name;
        actx.producer = &stamp;
        audit::Result audit_result = run.runtime->auditFindings();
        audit_result.merge(core::auditRun(*run.runtime, actx));
        std::printf("audit: %llu check(s), %zu violation(s)\n",
                    static_cast<unsigned long long>(
                        audit_result.checksRun()),
                    audit_result.violations().size());
        if (!audit_result.ok()) {
            std::fprintf(stderr, "el_run: %s\n",
                         audit_result.summary().c_str());
            if (code == exit_ok) {
                code = exit_audit;
                exit_class = "audit";
            }
        }
    }

    // The report explains the run; an abnormal one is explained even
    // when nobody asked, in ./postmortem.json. Only a requested report
    // that cannot be written fails the run.
    const FaultInjector *fi = run.runtime->faultInjector();
    bool injected = fi && fi->totalFires() > 0;
    std::string report_path = report_json;
    if (report_path.empty() && (code != exit_ok || injected))
        report_path = "postmortem.json";
    if (!report_path.empty()) {
        core::ReportInfo info;
        info.workload = wl->name;
        info.exit_class = exit_class;
        info.exit_code = code;
        info.resumed = resumed;
        info.checkpoint_seq = resumed ? resume_img.seq : 0;
        info.guest = guest;
        info.producer = &stamp;
        if (core::writeRunReport(*run.runtime, info, report_path)) {
            std::printf("report: %s\n", report_path.c_str());
        } else {
            std::fprintf(stderr, "el_run: cannot write %s\n",
                         report_path.c_str());
            if (!report_json.empty())
                return exit_io;
        }
    }
    return code;
}
