/**
 * @file
 * Case study: warm start from the persistent translation-artifact store.
 *
 * Three legs per workload over identical inputs:
 *  - cold:  empty store, every hot trace built live (and recorded),
 *  - warm:  second run over the store the cold leg saved,
 *  - aot:   run over a store pre-translated and validated by the
 *           `el_aot` flow (aggressive-heat discovery, then a
 *           shadow-check-everything validation pass that drops any
 *           artifact the sentinel convicts).
 *
 * Reported per leg: total cycles, translation cycles (hot-translation
 * stalls + cold translation work), and the reuse rate. The headline
 * scalars assert the subsystem's contract: the warm leg adopts >= 90%
 * of its hot artifacts from the store, spends <= 50% of the cold leg's
 * translation cycles, and reproduces the cold leg's guest results
 * bit-for-bit.
 */

#include <cstdio>
#include <filesystem>
#include <tuple>

#include "bench/bench_common.hh"
#include "persist/store.hh"
#include "support/sentinel.hh"

using namespace el;

namespace
{

namespace fs = std::filesystem;

core::Options
baseOpts()
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    return o;
}

/** Simulated cycles spent making translations (both phases). */
double
translationCycles(core::Runtime &rt)
{
    const StatGroup &st = rt.stats();
    const StatGroup &xl = rt.translator().stats;
    return static_cast<double>(st.get("hot.stall_cycles")) +
           core::cold_xlate_cost_per_insn *
               static_cast<double>(xl.get("xlate.cold_insns"));
}

struct Leg
{
    double cycles = 0;
    double xlate_cycles = 0;
    double reuse = 0; //!< adopted / (adopted + locally built)
    core::GuestResult guest;
};

Leg
measure(const guest::Workload &w, core::Options o,
        persist::ArtifactStore *store, bench::Report &rep,
        const std::string &label)
{
    o.persist = store;
    harness::TranslatedRun run =
        harness::runTranslated(w.image, w.params.abi, o);
    Leg leg;
    leg.cycles = run.outcome.cycles;
    leg.xlate_cycles = translationCycles(*run.runtime);
    double hits = store ? static_cast<double>(
                              store->stats.get("persist.hits"))
                        : 0;
    double local = static_cast<double>(
        run.runtime->translator().stats.get("xlate.hot_blocks"));
    leg.reuse = hits + local > 0 ? hits / (hits + local) : 0;
    leg.guest = core::guestResultOf(
        run.outcome.final_state, run.outcome.console, run.outcome.exited,
        run.outcome.exit_code);
    rep.row(label)
        .metric("cycles", leg.cycles)
        .metric("translation_cycles", leg.xlate_cycles)
        .metric("reuse", leg.reuse)
        .metric("exit_code", leg.guest.exit_code)
        .attribution(*run.runtime);
    return leg;
}

/** The `el_aot` flow, inline: discover aggressively, validate, seal. */
void
buildAotStore(const guest::Workload &w, persist::ArtifactStore &store)
{
    {
        core::Options o = baseOpts();
        o.heat_threshold = 4;
        o.persist = &store;
        harness::runTranslated(w.image, w.params.abi, o);
    }
    {
        core::Options o = baseOpts();
        o.heat_threshold = 4;
        o.max_run_cycles *= 10;
        o.persist = &store;
        sentinel::Config scfg;
        scfg.selfcheck_rate = 1;
        sentinel::Sentinel sent(scfg);
        o.sentinel = &sent;
        harness::runTranslated(w.image, w.params.abi, o);
    }
    store.seal();
}

} // namespace

int
main(int argc, char **argv)
{
    if (int rc = bench::handleArgs(argc, argv); rc >= 0)
        return rc;
    bench::banner("Warm start from the persistent artifact store",
                  "the persistence subsystem (no paper figure)");

    fs::path dir = fs::temp_directory_path() / "el_bench_warm_start";
    fs::remove_all(dir);
    fs::create_directories(dir);

    bench::Report rep("case_warm_start");
    Table t({"workload", "leg", "cycles", "xlate cycles", "xlate share",
             "reuse", "bit-exact"});

    int rc = 0;
    for (const char *name : {"gzip", "mcf"}) {
        const guest::Workload *wl = nullptr;
        std::vector<guest::Workload> suite = guest::specIntSuite();
        for (const guest::Workload &w : suite)
            if (w.name == name)
                wl = &w;
        if (!wl)
            continue;

        core::Options base = baseOpts();
        persist::Fingerprint fp =
            persist::fingerprintOf(wl->image, base);
        fs::path cache = dir / name;
        fs::create_directories(cache);

        // Cold leg: records into a fresh store, saved for the warm leg.
        persist::ArtifactStore writer(fp);
        Leg cold = measure(*wl, base, &writer, rep,
                           std::string(name) + "_cold");
        writer.save(cache.string());

        // Warm leg: adopt what the cold leg published.
        persist::ArtifactStore warm_store(fp);
        warm_store.load(cache.string());
        Leg warm = measure(*wl, base, &warm_store, rep,
                           std::string(name) + "_warm");

        // AOT leg: a sealed, validated store built offline.
        persist::ArtifactStore aot_store(fp);
        buildAotStore(*wl, aot_store);
        Leg aot = measure(*wl, base, &aot_store, rep,
                          std::string(name) + "_aot");

        bool warm_exact = cold.guest == warm.guest;
        bool aot_exact = cold.guest == aot.guest;
        double ratio = cold.xlate_cycles > 0
                           ? warm.xlate_cycles / cold.xlate_cycles
                           : 0;

        const std::tuple<const char *, const Leg *, bool> legs[] = {
            {"cold", &cold, true},
            {"warm", &warm, warm_exact},
            {"aot", &aot, aot_exact}};
        for (const auto &[leg, l, exact] : legs) {
            t.addRow({name, leg, strfmt("%.0f", l->cycles),
                      strfmt("%.0f", l->xlate_cycles),
                      strfmt("%.2f%%",
                             100.0 * l->xlate_cycles / l->cycles),
                      strfmt("%.0f%%", 100.0 * l->reuse),
                      exact ? "yes" : "NO"});
        }

        rep.scalar(std::string(name) + "_warm_reuse", warm.reuse, 0.10);
        rep.scalar(std::string(name) + "_warm_xlate_ratio", ratio,
                   0.50);
        rep.scalar(std::string(name) + "_warm_speedup",
                   cold.cycles / warm.cycles, 0.10);
        rep.scalar(std::string(name) + "_aot_reuse", aot.reuse, 0.50);

        // The subsystem's contract, enforced.
        if (!warm_exact || !aot_exact) {
            std::fprintf(stderr, "%s: warm/aot guest results diverge "
                                 "from cold\n",
                         name);
            rc = 1;
        }
        if (warm.reuse < 0.90) {
            std::fprintf(stderr, "%s: warm reuse %.0f%% below 90%%\n",
                         name, 100.0 * warm.reuse);
            rc = 1;
        }
        if (ratio > 0.50) {
            std::fprintf(stderr,
                         "%s: warm translation cycles %.0f%% of cold "
                         "(need <= 50%%)\n",
                         name, 100.0 * ratio);
            rc = 1;
        }
    }

    rep.write();
    std::printf("%s\n", t.render().c_str());
    std::printf(
        "Interpretation: the warm leg adopts the cold leg's published\n"
        "traces from disk, cutting translation cycles by >= 2x with\n"
        "bit-identical guest results; the aot leg additionally survives\n"
        "the el_aot validation gauntlet (convicted artifacts dropped),\n"
        "so its reuse can sit below warm when the sentinel rejects\n"
        "artifacts conservatively.\n");
    fs::remove_all(dir);
    return rc;
}
