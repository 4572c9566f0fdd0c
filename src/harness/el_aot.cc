/**
 * @file
 * `el_aot`: offline pre-translation into a sealed artifact store.
 *
 * The endpoint of the persistence subsystem: translate a whole guest
 * image ahead of time, so `el_run --cache-dir=<d>` starts warm with
 * zero hot-translation cost. The tool runs three passes:
 *
 *  1. Oracle: the image under the reference interpreter — the ground
 *     truth every artifact is judged against.
 *  2. Discovery: a translated run with an aggressive heat threshold
 *     and an attached store, so every trace worth keeping is built and
 *     recorded.
 *  3. Validation: a fresh translated run that adopts every recorded
 *     artifact with the divergence sentinel shadow-checking *every*
 *     region against the interpreter. A diverging artifact is
 *     quarantined, which purges its store records — it is never
 *     shipped. The run's final architectural outcome is then compared
 *     against the oracle; any mismatch aborts without writing a store.
 *
 * Only after both gates pass is the store sealed (frozen against
 * further recording) and saved.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/report.hh"
#include "harness/cli.hh"
#include "harness/exec.hh"
#include "persist/store.hh"
#include "support/logging.hh"
#include "support/sentinel.hh"

namespace
{

using namespace el;

constexpr int exit_ok = 0;
constexpr int exit_usage = 1;
constexpr int exit_io = 2;
constexpr int exit_divergence = 30;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: el_aot --workload=<name> --cache-dir=<dir> [options]\n"
        "  --workload=<name>      personality to pre-translate\n"
        "  --cache-dir=<dir>      store directory to write\n"
        "  --list                 list known workloads and exit\n"
        "  --heat-threshold=<n>   discovery aggressiveness (default 4:\n"
        "                         nearly everything heats)\n"
        "  --threads=<n>          simulated discovery workers\n"
        "                         (0-%u, default 0 = the discovery\n"
        "                         run's guest runs each hot session)\n"
        "  --fault=<site>:<p>     inject faults into the DISCOVERY run\n"
        "                         (validation always runs clean; used\n"
        "                         to prove miscompiled artifacts are\n"
        "                         rejected, see CI)\n"
        "  --fault-seed=<n>       fault-injection PRNG seed\n"
        "  --log-level=<l>        err|warn|info|debug (EL_LOG env\n"
        "                         var is the fallback)\n",
        core::max_translation_threads);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, cache_dir;
    uint32_t heat_threshold = 4;
    uint32_t threads = 0;
    FaultConfig fault;
    bool list = false;

    initLogLevelFromEnv(); // Explicit --log-level below overrides.

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool ok = true; // false: a value that does not parse
        auto value = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            if (arg.compare(0, n, prefix) != 0 || arg.size() == n)
                return nullptr;
            return arg.c_str() + n;
        };
        if (const char *v = value("--workload=")) {
            workload_name = v;
        } else if (const char *v = value("--cache-dir=")) {
            cache_dir = v;
        } else if (arg == "--list") {
            list = true;
        } else if (const char *v = value("--heat-threshold=")) {
            ok = harness::parseNumber(v, &heat_threshold);
        } else if (const char *v = value("--threads=")) {
            ok = harness::parseThreads(v, &threads);
        } else if (const char *v = value("--fault=")) {
            ok = harness::parseFaultSpec(v, &fault);
        } else if (const char *v = value("--fault-seed=")) {
            ok = harness::parseNumber(v, &fault.seed);
        } else if (const char *v = value("--log-level=")) {
            int level = parseLogLevel(v);
            if (level < 0) {
                std::fprintf(stderr,
                             "el_aot: bad --log-level '%s' (want "
                             "err|warn|info|debug)\n", v);
                return exit_usage;
            }
            log_level = level;
        } else if (arg == "--help") {
            usage();
            return exit_ok;
        } else {
            std::fprintf(stderr, "el_aot: unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return exit_usage;
        }
        if (!ok) {
            std::fprintf(stderr, "el_aot: bad value in '%s'\n",
                         arg.c_str());
            return exit_usage;
        }
    }

    std::vector<guest::Workload> suite = harness::allWorkloads();
    if (list) {
        for (const guest::Workload &w : suite)
            std::printf("%s\n", w.name.c_str());
        return exit_ok;
    }
    if (workload_name.empty() || cache_dir.empty()) {
        usage();
        return exit_usage;
    }

    const guest::Workload *wl = nullptr;
    for (const guest::Workload &w : suite)
        if (w.name == workload_name)
            wl = &w;
    if (!wl) {
        std::fprintf(stderr, "el_aot: unknown workload '%s'\n",
                     workload_name.c_str());
        return exit_usage;
    }

    // Pass 1: the oracle.
    harness::Outcome oracle =
        harness::runInterpreter(wl->image, wl->params.abi);
    core::GuestResult oracle_res = core::guestResultOf(
        oracle.final_state, oracle.console, oracle.exited,
        oracle.exit_code);
    std::printf("el_aot: oracle: exit=%d insns=%llu state=%016llx\n",
                oracle.exit_code,
                static_cast<unsigned long long>(oracle.guest_insns),
                static_cast<unsigned long long>(oracle_res.state_hash));

    // The fingerprint hashes only emission-relevant options, which are
    // identical between the discovery pass, the validation pass, and a
    // later default el_run — that is what makes the store portable
    // across thresholds.
    core::Options base;
    persist::ArtifactStore store(
        persist::fingerprintOf(wl->image, base));

    // Pass 2: discovery (aggressive heating, store recording).
    {
        core::Options o;
        o.heat_threshold = heat_threshold;
        o.hot_batch = 1;
        o.translation_threads = threads;
        o.fault = fault;
        o.persist = &store;
        harness::TranslatedRun run =
            harness::runTranslated(wl->image, wl->params.abi, o);
        std::printf("el_aot: discovery: %zu artifacts recorded "
                    "(%llu hot blocks)\n",
                    store.recordCount(),
                    static_cast<unsigned long long>(
                        run.runtime->translator().stats.get(
                            "xlate.hot_blocks")));
    }

    // Pass 3: validation — adopt everything, shadow-check everything.
    uint64_t divergences = 0;
    {
        core::Options o;
        o.heat_threshold = heat_threshold;
        o.hot_batch = 1;
        o.persist = &store;
        // Quarantined regions fall back to gated interpretation, which
        // is an order of magnitude dearer in simulated cycles; give the
        // validation run budget to finish anyway — a convicted artifact
        // must still yield a completed, oracle-matching run.
        o.max_run_cycles = 10 * o.max_run_cycles;
        sentinel::Config scfg;
        scfg.selfcheck_rate = 1;
        sentinel::Sentinel sentinel(scfg);
        o.sentinel = &sentinel;
        harness::TranslatedRun run =
            harness::runTranslated(wl->image, wl->params.abi, o);
        divergences = sentinel.totalDivergences();

        bool match = core::guestResultOf(run.outcome.final_state,
                                         run.outcome.console,
                                         run.outcome.exited,
                                         run.outcome.exit_code) ==
                     oracle_res;
        std::printf("el_aot: validation: checked=%llu divergences=%llu "
                    "dropped=%llu outcome=%s\n",
                    static_cast<unsigned long long>(
                        run.runtime->stats().get("sentinel.checked")),
                    static_cast<unsigned long long>(divergences),
                    static_cast<unsigned long long>(
                        store.stats.get("persist.dropped")),
                    match ? "matches oracle" : "MISMATCH");
        if (!match) {
            std::fprintf(stderr,
                         "el_aot: validated run diverges from the "
                         "interpreter oracle; no store written\n");
            return exit_divergence;
        }
    }

    store.seal();
    // save() publishes via temp+fsync+rename, so a killed el_aot never
    // ships a partial sealed store: either the old file survives or
    // the new one is complete. It replaces any store an el_run left,
    // appended tail included.
    if (!store.save(cache_dir)) {
        std::fprintf(stderr, "el_aot: cannot write store in %s\n",
                     cache_dir.c_str());
        return exit_io;
    }
    std::printf("el_aot: sealed %zu validated artifacts (%llu rejected) "
                "-> %s (%lluB)\n",
                store.recordCount(),
                static_cast<unsigned long long>(
                    store.stats.get("persist.dropped")),
                store.pathIn(cache_dir).c_str(),
                static_cast<unsigned long long>(
                    store.stats.get("persist.bytes_written")));
    return exit_ok;
}
