/**
 * @file
 * Case study: crash recovery cost — interrupted-then-resumed vs a cold
 * restart.
 *
 * Three legs over the same workload:
 *  - cold:        the uninterrupted reference run (also what a restart
 *                 without any recovery machinery would cost),
 *  - interrupted: the same run cut off mid-flight by a cycle budget,
 *                 appending hot artifacts to the store file with the
 *                 checkpointer attached — what survives is exactly
 *                 what a kill -9 would leave on disk (frames appended
 *                 at adoption boundaries, the last durable
 *                 checkpoint),
 *  - resumed:     a relaunch over that wreckage: replaying the
 *                 appended frames (the journal) warms the store, the
 *                 checkpoint restores guest state, and the run
 *                 completes.
 *
 * The headline scalars: the resumed leg must reproduce the cold leg's
 * guest results bit-for-bit, reuse appended hot artifacts instead of
 * re-translating them, and finish cheaper than a cold restart (it
 * skips the simulated cycles up to the checkpoint and the translation
 * work for every replayed artifact).
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/bench_common.hh"
#include "core/checkpoint.hh"
#include "persist/store.hh"

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

core::GuestResult
guestOf(const harness::TranslatedRun &run)
{
    return core::guestResultOf(run.outcome.final_state,
                               run.outcome.console, run.outcome.exited,
                               run.outcome.exit_code);
}

} // namespace

int
main(int argc, char **argv)
{
    if (int rc = bench::handleArgs(argc, argv); rc >= 0)
        return rc;
    bench::banner("Crash recovery: resume vs cold restart",
                  "the crash-consistency subsystem (no paper figure)");

    fs::path dir = fs::temp_directory_path() / "el_bench_crash_recovery";
    fs::remove_all(dir);
    fs::create_directories(dir);

    bench::Report rep("case_crash_recovery");
    Table t({"leg", "cycles", "vs cold", "reuse", "replayed",
             "bit-exact"});
    int rc = 0;

    const guest::Workload *wl = nullptr;
    std::vector<guest::Workload> suite = guest::specIntSuite();
    for (const guest::Workload &w : suite)
        if (w.name == "gzip")
            wl = &w;
    if (!wl) {
        std::fprintf(stderr, "gzip workload missing\n");
        return 1;
    }

    core::Options base = baseOpts();
    persist::Fingerprint fp = persist::fingerprintOf(wl->image, base);

    // ----- cold: the uninterrupted reference ------------------------
    harness::TranslatedRun cold =
        harness::runTranslated(wl->image, wl->params.abi, baseOpts());
    core::GuestResult want = guestOf(cold);
    double cold_cycles = cold.outcome.cycles;
    rep.row("cold").metric("cycles", cold_cycles).attribution(
        *cold.runtime);
    t.addRow({"cold", strfmt("%.0f", cold_cycles), "1.00", "-", "-",
              "yes"});

    // ----- interrupted: die halfway appending, checkpoints on -------
    double interrupted_cycles = 0;
    {
        persist::ArtifactStore store(fp);
        store.openLog(dir.string());
        core::CheckpointConfig cfg;
        cfg.dir = dir.string();
        cfg.period_cycles = 200000;
        cfg.fp = fp;
        core::Checkpointer ck(cfg);
        core::Options o = baseOpts();
        o.persist = &store;
        o.checkpointer = &ck;
        o.max_run_cycles = static_cast<uint64_t>(cold_cycles / 2);
        harness::TranslatedRun cut =
            harness::runTranslated(wl->image, wl->params.abi, o);
        interrupted_cycles = cut.outcome.cycles;
        rep.row("interrupted")
            .metric("cycles", interrupted_cycles)
            .metric("checkpoints", static_cast<double>(ck.captures()));
        t.addRow({"interrupted", strfmt("%.0f", interrupted_cycles),
                  strfmt("%.2f", interrupted_cycles / cold_cycles), "-",
                  "-", "-"});
        // No compact(): the store object dies here exactly as a killed
        // process would, leaving the appended frames + checkpoint.
    }

    // ----- resumed: relaunch over the wreckage ----------------------
    persist::ArtifactStore store(fp);
    bool warm = store.load(dir.string()); // appended frames only
    core::CheckpointImage img;
    std::string err;
    bool have_ckpt =
        core::Checkpointer::load(dir.string(), fp, &img, &err);
    if (!have_ckpt)
        std::fprintf(stderr, "no usable checkpoint (%s): resuming cold\n",
                     err.c_str());
    core::Options o = baseOpts();
    o.persist = &store;
    harness::TranslatedRun resumed = harness::runTranslated(
        wl->image, wl->params.abi, o, have_ckpt ? &img : nullptr);
    double resumed_cycles = resumed.outcome.cycles;
    double hits =
        static_cast<double>(store.stats.get("persist.hits"));
    double local = static_cast<double>(
        resumed.runtime->translator().stats.get("xlate.hot_blocks"));
    double reuse = hits + local > 0 ? hits / (hits + local) : 0;
    double replayed =
        static_cast<double>(store.stats.get("persist.journal_replayed"));
    bool exact = guestOf(resumed) == want;
    double ratio = resumed_cycles / cold_cycles;

    rep.row("resumed")
        .metric("cycles", resumed_cycles)
        .metric("reuse", reuse)
        .metric("journal_replayed", replayed)
        .attribution(*resumed.runtime);
    t.addRow({"resumed", strfmt("%.0f", resumed_cycles),
              strfmt("%.2f", ratio), strfmt("%.0f%%", 100.0 * reuse),
              strfmt("%.0f", replayed), exact ? "yes" : "NO"});

    rep.scalar("resume_vs_cold", ratio, 0.15);
    rep.scalar("recovery_reuse", reuse, 0.25);
    rep.scalar("journal_replayed", replayed, 0.50);
    rep.scalar("checkpoint_preserved_fraction",
               have_ckpt ? img.cycles / cold_cycles : 0, 0.50);

    // The subsystem's contract, enforced.
    if (!warm || replayed <= 0) {
        std::fprintf(stderr, "replaying the appended frames recovered "
                             "nothing\n");
        rc = 1;
    }
    if (!exact) {
        std::fprintf(stderr,
                     "resumed guest results diverge from cold\n");
        rc = 1;
    }
    if (reuse < 0.5) {
        std::fprintf(stderr, "recovery reuse %.0f%% below 50%%\n",
                     100.0 * reuse);
        rc = 1;
    }
    if (ratio >= 1.0) {
        std::fprintf(stderr,
                     "resume (%.0f cycles) not cheaper than a cold "
                     "restart (%.0f)\n",
                     resumed_cycles, cold_cycles);
        rc = 1;
    }

    rep.write();
    std::printf("%s\n", t.render().c_str());
    std::printf(
        "Interpretation: the interrupted leg leaves only what a kill -9\n"
        "leaves — store frames appended at adoption boundaries and the\n"
        "last durable checkpoint. The resumed leg replays those frames\n"
        "(warm hot traces), restores guest state from the checkpoint,\n"
        "and completes bit-identically, cheaper than restarting cold.\n");
    fs::remove_all(dir);
    return rc;
}
