/**
 * @file
 * The two-clock benchmark: one workload per invocation, measured on the
 * host clock (steady_clock wall time) and the simulated clock (IPF
 * cycles), with every guest result checked against the interpreter.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--expected <file>]
 *   perfbench --write-expected
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones. The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench.hh"
#include "harness/exec.hh"
#include "harness/native.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/stats.hh"

using namespace el;
using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string out_dir = ".";
    std::string expected_file;
    bool write_expected = false;
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <%s> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--expected <file>]\n       perfbench --write-expected\n",
                 msg, "hot_loops|flat_code|fp_media|observed");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--write-expected") {
            a->write_expected = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a->workload = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (k == "--out-dir") {
            a->out_dir = v;
        } else if (k == "--expected") {
            a->expected_file = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return a->write_expected ||
           (!a->workload.empty() && a->seconds > 0 &&
            (a->trace == 0 || a->trace == 1));
}

std::string
expectedLine(const Program &p)
{
    const Expected &e = p.expected;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s %d %d %016" PRIx64 " %016" PRIx64 " %" PRIu64,
                  p.workload.name.c_str(), e.exited ? 1 : 0, e.exit_code,
                  e.console_hash, e.state_hash, e.guest_insns);
    return buf;
}

/** Seed-0 oracle results of every program, one line each. */
int
writeExpected()
{
    std::vector<std::string> seen;
    for (const std::string &name : workloadNames()) {
        Workload wl;
        makeWorkload(name, 0, &wl);
        for (Program &p : wl.programs) {
            if (std::find(seen.begin(), seen.end(), p.workload.name) !=
                seen.end())
                continue;
            seen.push_back(p.workload.name);
            runOracle(&p);
            std::printf("%s\n", expectedLine(p).c_str());
        }
    }
    return 0;
}

/** Results of the translated runs of one program across passes. */
struct ProgramRuns
{
    std::vector<double> wall_s;    //!< Untraced passes.
    std::vector<double> cal_s;     //!< Calibration around each of them.
    std::vector<double> traced_s;  //!< Traced passes.
    std::vector<double> run_s;     //!< Runtime::run, traced passes.
    double counterpart_s = 0;      //!< Run with observers flipped.
    SimRecord sim;                 //!< From the first pass.
    std::unique_ptr<Live> ref;     //!< Plain run kept for the replays.
};

struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; //!< Determinism or self-test failures.
};

/** Compare @p got against @p want; record each differing key. */
void
checkSame(const SimRecord &want, const SimRecord &got,
          const std::string &what, Checks *c)
{
    for (const auto &[k, v] : want) {
        auto it = got.find(k);
        if (it == got.end() || it->second != v) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s: simulated %s differs (%.17g vs %.17g)",
                          what.c_str(), k.c_str(), v,
                          it == got.end() ? 0.0 : it->second);
            c->errors.push_back(buf);
        }
    }
}

void
record(const Program &p, const RunResult &r, const std::string &what,
       ProgramRuns *pr, Checks *c)
{
    ++c->attempted;
    if (!r.match) {
        ++c->failed;
        std::fprintf(stderr, "perfbench: MISMATCH %s %s: %s\n",
                     p.workload.name.c_str(), what.c_str(), r.why.c_str());
    }
    if (pr->sim.empty())
        pr->sim = r.sim;
    else
        checkSame(pr->sim, r.sim, p.workload.name + " " + what, c);
}

/**
 * The check must bite: a translator miscompile (a flipped immediate in
 * every translation, sentinel off) must be counted as a mismatch. Runs
 * on a shortened copy of the workload's first program; a corruption
 * can be harmless, so a few injection seeds are tried.
 */
bool
miscompileSelfTest(const Workload &wl, const RunConfig &base, Spans &spans,
                   std::string *detail)
{
    Program victim;
    victim.workload = wl.programs.front().workload;
    guest::WorkloadParams &vp = victim.workload.params;
    vp.outer_iters = std::max<uint32_t>(4, vp.outer_iters / 16);
    if (vp.size)
        vp.size = std::max<uint32_t>(16, vp.size / 16 / 16 * 16);
    victim.workload = buildImage(victim.workload);
    runOracle(&victim);
    for (uint64_t fseed = 1; fseed <= 4; ++fseed) {
        RunConfig cfg = base;
        cfg.observed = false;
        cfg.fault.seed = fseed;
        cfg.fault.site(FaultSite::Miscompile, 1024);
        cfg.max_run_cycles = 50ULL * 1000 * 1000;
        RunResult r = runTranslated(victim, 0, cfg, spans, false);
        if (!r.match) {
            *detail = victim.workload.name + " fault seed " +
                      std::to_string(fseed) + " counted as a mismatch (" +
                      r.why + ")";
            return true;
        }
    }
    *detail = "no seeded miscompile of " + victim.workload.name +
              " was counted as a mismatch";
    return false;
}

double
fastest(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

/** Wall seconds of one pass: the sum of each program's fastest run. */
double
fastestPass(const std::vector<ProgramRuns> &runs,
            std::vector<double> ProgramRuns::*samples)
{
    double t = 0;
    for (const ProgramRuns &r : runs)
        t += fastest(r.*samples);
    return t;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, const Checks &c, const std::vector<Metric> &ms)
{
    json::Writer w;
    w.beginObject();
    w.kv("correct", correct);
    w.kv("attempted", c.attempted);
    w.kv("failed", c.failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : ms) {
        w.key(m.name);
        w.beginObject();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args))
        return usage("bad arguments");
    if (args.write_expected)
        return writeExpected();

    Workload wl;
    if (!makeWorkload(args.workload, args.seed, &wl))
        return usage(("unknown workload '" + args.workload + "'").c_str());
    const size_t np = wl.programs.size();
    std::vector<std::string> names;
    for (const Program &p : wl.programs)
        names.push_back(p.workload.name);

    Spans spans;
    spans.setOn(args.trace == 1);
    Checks checks;

    // ----- set-up: oracle, references, golden results -------------------
    std::map<std::string, std::string> golden;
    if (args.seed == 0 && !args.expected_file.empty()) {
        std::ifstream f(args.expected_file);
        if (!f) {
            std::fprintf(stderr, "perfbench: cannot read %s\n",
                         args.expected_file.c_str());
            return 2;
        }
        std::string line;
        while (std::getline(f, line))
            if (!line.empty())
                golden[line.substr(0, line.find(' '))] = line;
    }
    for (size_t i = 0; i < np; ++i) {
        Program &p = wl.programs[i];
        int pi = static_cast<int>(i);
        {
            auto sc = spans.scope("ia32.interp", pi);
            runOracle(&p);
        }
        if (!p.expected.exited)
            checks.errors.push_back(p.workload.name +
                                    ": the oracle run did not exit");
        if (!golden.empty() && golden[p.workload.name] != expectedLine(p))
            checks.errors.push_back(p.workload.name +
                                    ": oracle result differs from " +
                                    args.expected_file);
        Clock::time_point t0 = Clock::now();
        if (p.has_native) {
            auto sc = spans.scope("harness.native", pi);
            p.ref_cycles = harness::nativeCycles(p.workload);
        } else {
            // No native kernel: Fig. 8's IA-32 platform, 1.6 GHz Xeon vs
            // 1.5 GHz Itanium 2, expressed in Itanium cycles.
            auto sc = spans.scope("harness.direct", pi);
            harness::Outcome d = harness::runDirect(
                p.workload.image, p.workload.params.abi);
            p.ref_cycles = d.cycles * 1.5 / 1.6;
        }
        p.native_s = secondsSince(t0);
    }

    // ----- the timed passes ------------------------------------------------
    RunConfig own;
    own.observed = wl.observed;
    own.artifact_dir = args.out_dir;
    std::vector<ProgramRuns> runs(np);
    std::vector<double> pass_s, traced_pass_s;
    {
        Clock::time_point t0 = Clock::now();
        int pass = 0;
        // Trace mode alternates untraced and traced passes; both kinds
        // run at least once.
        int min_passes = args.trace ? 2 : 3;
        double last_cal = calibrate();
        while (pass < min_passes || secondsSince(t0) < args.seconds) {
            bool traced = args.trace == 1 && pass % 2 == 1;
            spans.setOn(traced);
            spans.setPass(pass);
            double total = 0;
            for (size_t i = 0; i < np; ++i) {
                const Program &p = wl.programs[i];
                bool keep = args.trace == 1 && pass == 0 && !wl.observed;
                RunResult r = runTranslated(p, static_cast<int>(i), own,
                                            spans, keep);
                // The machine's speed while this run ran: the mean of the
                // calibrations just before and just after it.
                double cal = calibrate();
                record(p, r, "pass " + std::to_string(pass), &runs[i],
                       &checks);
                total += r.wall_s;
                if (traced) {
                    runs[i].traced_s.push_back(r.wall_s);
                    runs[i].run_s.push_back(r.run_s);
                } else {
                    runs[i].wall_s.push_back(r.wall_s);
                    runs[i].cal_s.push_back(0.5 * (last_cal + cal));
                }
                last_cal = cal;
                if (r.live)
                    runs[i].ref = std::move(r.live);
            }
            (traced ? traced_pass_s : pass_s).push_back(total);
            ++pass;
        }
        spans.setOn(args.trace == 1);
        spans.setPass(-1);
    }

    // The workload's own peak, before the set-up loop and the extra runs
    // below add allocator churn of their own.
    double peak_rss_mb = peakRssMb();

    // ----- set-up time: build, load, construct, several times ------------
    std::vector<double> setup_s, build_s;
    {
        Clock::time_point t0 = Clock::now();
        while (setup_s.size() < 20 ||
               (setup_s.size() < 2000 && secondsSince(t0) < 0.5)) {
            double s = 0, b = 0;
            for (size_t i = 0; i < np; ++i)
                s += setupOnce(wl.programs[i], static_cast<int>(i), spans,
                               &b);
            setup_s.push_back(s);
            build_s.push_back(b);
        }
    }

    // ----- observers flipped: the flat_code == observed guard -------------
    uint64_t dropped_events = 0;
    if (args.trace == 1 || wl.observed) {
        RunConfig flip = own;
        flip.observed = !own.observed;
        for (size_t i = 0; i < np; ++i) {
            const Program &p = wl.programs[i];
            RunResult r = runTranslated(p, static_cast<int>(i), flip, spans,
                                        !flip.observed && args.trace == 1);
            record(p, r, flip.observed ? "with observers"
                                       : "without observers",
                   &runs[i], &checks);
            runs[i].counterpart_s = r.wall_s;
            if (r.live)
                runs[i].ref = std::move(r.live);
            dropped_events += r.dropped_events;
        }
    }

    std::string selftest;
    if (!miscompileSelfTest(wl, own, spans, &selftest))
        checks.errors.push_back("miscompile self-test: " + selftest);

    // ----- end-to-end numbers (simulated ones from the first pass) --------
    uint64_t guest_insns = 0;
    std::vector<double> cycles, scores;
    double overhead = 0, total_cycles = 0, code = 0;
    for (size_t i = 0; i < np; ++i) {
        const Program &p = wl.programs[i];
        const SimRecord &s = runs[i].sim;
        guest_insns += p.expected.guest_insns;
        cycles.push_back(s.at("cycles"));
        // A native binary pays the same kernel and idle time.
        double ref = p.ref_cycles;
        if (p.has_native)
            ref += s.at("bucket.native") + s.at("bucket.idle");
        scores.push_back(100.0 * ref / s.at("cycles"));
        overhead += s.at("bucket.overhead");
        total_cycles += s.at("cycles");
        code += s.at("code.high_water");
    }
    double wall_s = fastestPass(runs, &ProgramRuns::wall_s);
    // Each run scaled by the machine's speed while it ran; the median
    // of those is steadier than any unscaled estimate (perfbench/README).
    double host_s = 0;
    for (const ProgramRuns &r : runs) {
        std::vector<double> scaled;
        for (size_t k = 0; k < r.wall_s.size(); ++k)
            scaled.push_back(r.wall_s[k] * calibration_ref_s / r.cal_s[k]);
        host_s += median(scaled);
    }
    std::vector<Metric> e2e = {
        {"host_s", host_s, "s"},
        {"guest_mips", static_cast<double>(guest_insns) / host_s / 1e6,
         "Minsn/s"},
        {"sim_cycles", geomean(cycles), "cycles"},
        {"el_score_pct", geomean(scores), "%"},
        {"overhead_share", overhead / total_cycles, "fraction"},
        {"code_ipf_insns", code, "insns"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    double mismatch_frac = static_cast<double>(checks.failed) /
                           static_cast<double>(checks.attempted);

    // ----- per-layer numbers (trace mode) ---------------------------------
    std::vector<Metric> layers;
    if (args.trace == 1) {
        auto sum = [&](const char *k) {
            double t = 0;
            for (const ProgramRuns &r : runs)
                t += r.sim.at(k);
            return t;
        };
        auto ratio = [](double a, double b) { return b ? a / b : 0.0; };

        std::vector<ReplayTotals> reps(3);
        for (ReplayTotals &rep : reps)
            for (size_t i = 0; i < np; ++i)
                rep.add(replayTranslations(wl.programs[i],
                                           static_cast<int>(i),
                                           *runs[i].ref, spans));
        auto med = [&reps](auto field) {
            std::vector<double> v;
            for (const ReplayTotals &r : reps)
                v.push_back(static_cast<double>(r.*field));
            return median(v);
        };
        ReplayTotals rt = reps.front();
        double decode_s = med(&ReplayTotals::decode_s);
        double cold_s = med(&ReplayTotals::cold_s);
        double select_s = med(&ReplayTotals::select_s);
        double session_s = med(&ReplayTotals::session_s);
        double commit_s = med(&ReplayTotals::commit_s);
        double publish_s = med(&ReplayTotals::publish_s);

        // Machine::run from outside: the native kernels; fp_media has
        // none, so it times the stream kernel at each program's size.
        double machine_s = 0, machine_cycles = 0;
        for (size_t i = 0; i < np; ++i) {
            const Program &p = wl.programs[i];
            if (p.has_native) {
                machine_s += p.native_s;
                machine_cycles += p.ref_cycles;
            } else {
                guest::Workload probe = p.workload;
                probe.kernel = "stream";
                auto sc = spans.scope("harness.native", static_cast<int>(i));
                Clock::time_point t0 = Clock::now();
                machine_cycles += harness::nativeCycles(probe);
                machine_s += secondsSince(t0);
            }
        }
        double machine_ns_per_cycle = 1e9 * machine_s / machine_cycles;

        double run_s = 0, interp_s = 0;
        std::vector<double> observe;
        for (size_t i = 0; i < np; ++i) {
            run_s += fastest(runs[i].run_s);
            interp_s += wl.programs[i].oracle_s;
            double own_s = fastest(runs[i].wall_s);
            double with_obs = wl.observed ? own_s : runs[i].counterpart_s;
            double without = wl.observed ? runs[i].counterpart_s : own_s;
            observe.push_back(with_obs / without);
        }
        double executed = sum("cycles") - sum("cycles.synthetic");
        double covered = cold_s + select_s + session_s + commit_s +
                         machine_ns_per_cycle * 1e-9 * executed;
        double cold_insns = sum("xlate.cold_insns");
        double hot_insns = sum("xlate.hot_insns");

        layers = {
            {"guest.build_ms", 1e3 * median(build_s), "ms"},
            {"ia32.guest_insns", static_cast<double>(guest_insns), "count"},
            {"ia32.decode_ns_per_insn",
             1e9 * ratio(decode_s, static_cast<double>(rt.decode_insns)),
             "ns/insn"},
            {"ia32.interp_ns_per_insn",
             1e9 * interp_s / static_cast<double>(guest_insns), "ns/insn"},
            {"core.runtime_run_s", run_s, "s"},
            {"core.cold_ns_per_insn",
             1e9 * ratio(cold_s, static_cast<double>(rt.cold_insns)),
             "ns/insn"},
            {"core.hot_select_ns_per_insn",
             1e9 * ratio(select_s, static_cast<double>(rt.hot_insns)),
             "ns/insn"},
            {"core.hot_session_ns_per_insn",
             1e9 * ratio(session_s, static_cast<double>(rt.hot_insns)),
             "ns/insn"},
            {"core.hot_commit_ns_per_call",
             1e9 * ratio(commit_s, static_cast<double>(rt.hot_calls)),
             "ns/call"},
            {"core.cold_blocks", sum("xlate.cold_blocks"), "count"},
            {"core.cold_insns", cold_insns, "count"},
            {"core.hot_sessions", sum("hot.sessions"), "count"},
            {"core.hot_insns", hot_insns, "count"},
            {"core.hot_dup_ratio", ratio(hot_insns, cold_insns), "ratio"},
            {"core.hot_stall_cycles", sum("hot.stall_cycles"), "cycles"},
            {"core.ipf_per_ia32_hot",
             ratio(sum("xlate.hot_ipf_insns"), hot_insns), "ratio"},
            {"core.ipf_per_ia32_cold",
             ratio(sum("xlate.cold_ipf_insns"), cold_insns), "ratio"},
            {"core.sched_insns_per_group",
             ratio(sum("xlate.hot_ipf_insns") + sum("xlate.cold_ipf_insns"),
                   sum("sched.groups")),
             "insns/group"},
            {"core.loads_speculated", sum("sched.loads_speculated"),
             "count"},
            {"core.guard_misses",
             sum("guard.tos_miss") + sum("guard.tag_miss") +
                 sum("guard.domain_miss") + sum("guard.format_miss"),
             "count"},
            {"core.dispatch_lookups", sum("dispatch.lookups"), "count"},
            {"core.cycles.hot_code", sum("attr.hot_code") / total_cycles,
             "fraction"},
            {"core.cycles.cold_code", sum("attr.cold_code") / total_cycles,
             "fraction"},
            {"core.cycles.btgeneric", sum("attr.btgeneric") / total_cycles,
             "fraction"},
            {"core.cycles.fault_handling",
             sum("attr.fault_handling") / total_cycles, "fraction"},
            {"core.cycles.native", sum("attr.native") / total_cycles,
             "fraction"},
            {"core.cycles.idle", sum("attr.idle") / total_cycles,
             "fraction"},
            {"ipf.machine_ns_per_cycle", machine_ns_per_cycle, "ns/cycle"},
            {"ipf.sim_mcps", total_cycles / run_s / 1e6, "Mcycles/s"},
            {"ipf.publish_ns_per_call",
             1e9 * ratio(publish_s, static_cast<double>(rt.hot_calls)),
             "ns/call"},
            {"ipf.retired", sum("ipf.retired"), "count"},
            {"ipf.ipc", sum("ipf.retired") / executed, "insns/cycle"},
            {"ipf.misaligned", sum("ipf.misaligned"), "count"},
            {"mem.l1d_miss_rate",
             ratio(sum("l1d.misses"), sum("l1d.accesses")), "fraction"},
            {"mem.llc_miss_rate",
             ratio(sum("llc.misses"), sum("llc.accesses")), "fraction"},
            {"support.observe_x", geomean(observe), "ratio"},
            {"support.dropped_events", static_cast<double>(dropped_events),
             "count"},
            {"bench.trace_overhead",
             fastestPass(runs, &ProgramRuns::traced_s) / wall_s, "ratio"},
            {"bench.replay_coverage", covered / run_s, "fraction"},
        };

        std::string path = args.out_dir + "/spans-" + wl.name + "-seed" +
                           std::to_string(args.seed) + ".json";
        std::ofstream f(path, std::ios::binary);
        f << spans.chromeJson(names);
        if (!f)
            checks.errors.push_back("cannot write " + path);
    }

    // ----- report -------------------------------------------------------------
    std::printf("perfbench %s seed=%" PRIu64 " trace=%d: %zu untraced "
                "pass(es), %zu traced, %" PRIu64 " checked run(s)\n",
                wl.name.c_str(), args.seed, args.trace, pass_s.size(),
                traced_pass_s.size(), checks.attempted);
    std::printf("  %-10s %8s %7s %14s %9s %9s\n", "program", "outer", "size",
                "sim_cycles", "score%", "fastest_s");
    for (size_t i = 0; i < np; ++i) {
        const Program &p = wl.programs[i];
        std::printf("  %-10s %8u %7u %14.0f %9.2f %9.4f\n",
                    p.workload.name.c_str(), p.workload.params.outer_iters,
                    p.workload.params.size, cycles[i], scores[i],
                    fastest(runs[i].wall_s));
    }
    std::printf("  host_s: sum over programs of the median of %zu "
                "calibration-scaled pass(es); fastest unscaled %.4f s, pass "
                "totals median %.4f s, max %.4f s\n",
                pass_s.size(), wall_s, median(pass_s),
                *std::max_element(pass_s.begin(), pass_s.end()));
    for (const Metric &m : e2e)
        std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-30s %16.6g %s (%" PRIu64 " of %" PRIu64 " runs)\n",
                "mismatch_frac", mismatch_frac, "fraction", checks.failed,
                checks.attempted);
    for (const Metric &m : layers)
        std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  miscompile self-test: %s\n", selftest.c_str());
    for (const std::string &e : checks.errors)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());

    bool correct = checks.failed == 0 && checks.errors.empty();
    printResult(correct, checks, args.trace ? layers : e2e);
    std::fflush(stdout);
    return checks.errors.empty() ? 0 : 3;
}
