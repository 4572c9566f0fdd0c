/**
 * @file
 * Case study: asynchronous hot-translation pipeline.
 *
 * The seed translator runs hot optimization sessions synchronously:
 * the guest stalls for the whole session (hot_xlate_cost_per_insn is
 * ~20x the cold rate). The pipeline charges each session's cycles to a
 * simulated worker instead (the session itself runs on the runtime's
 * thread when it is queued, and is adopted at its planned ready
 * cycle), so the guest pays only the snapshot/enqueue cost plus the
 * final publication cost, while cold code keeps executing. This bench
 * sweeps the worker count, Options::translation_threads, on the gzip
 * and bzip2 stream personalities and reports guest-attributed
 * hot-translation stall — the acceptance bar is a >= 50% stall
 * reduction at four workers.
 */

#include "bench/bench_common.hh"

using namespace el;

namespace
{

struct Run
{
    double cycles = 0;
    uint64_t stall = 0;
    uint64_t adopted = 0;
    uint64_t hot_blocks = 0;
};

Run
runWith(const guest::Workload &w, uint32_t threads, bench::Report &rep)
{
    core::Options o;
    o.heat_threshold = 16;
    o.hot_batch = 1;
    o.translation_threads = threads;
    harness::TranslatedRun tr =
        harness::runTranslated(w.image, w.params.abi, o);
    Run r;
    r.cycles = tr.outcome.cycles;
    r.stall = tr.runtime->stats().get("hot.stall_cycles");
    r.adopted = tr.runtime->stats().get("hot.adopted");
    r.hot_blocks =
        tr.runtime->translator().stats.get("xlate.hot_blocks");
    rep.row(w.name + strfmt("/t%u", threads))
        .metric("threads", threads)
        .metric("cycles", r.cycles)
        .metric("stall_cycles", static_cast<double>(r.stall))
        .metric("hot_blocks", static_cast<double>(r.hot_blocks))
        .metric("adopted", static_cast<double>(r.adopted))
        .attribution(*tr.runtime);
    return r;
}

void
sweep(const guest::Workload &w, bench::Report &rep)
{
    std::printf("\n[%s]\n", w.name.c_str());
    Run sync = runWith(w, 0, rep);
    Table t({"threads", "hot stall cyc", "stall vs sync", "speedup",
             "hot blocks", "adopted"});
    t.addRow({"0 (sync)",
              strfmt("%llu", static_cast<unsigned long long>(sync.stall)),
              "1.00x", "1.00x",
              strfmt("%llu",
                     static_cast<unsigned long long>(sync.hot_blocks)),
              "-"});
    for (uint32_t threads : {1u, 2u, 4u}) {
        Run r = runWith(w, threads, rep);
        if (threads == 4 && sync.stall)
            rep.scalar(w.name + "_stall_reduction_t4",
                       1.0 - static_cast<double>(r.stall) /
                                 static_cast<double>(sync.stall),
                       0.25);
        t.addRow({strfmt("%u", threads),
                  strfmt("%llu",
                         static_cast<unsigned long long>(r.stall)),
                  strfmt("%.2fx",
                         sync.stall ? static_cast<double>(r.stall) /
                                          static_cast<double>(sync.stall)
                                    : 0.0),
                  strfmt("%.3fx", sync.cycles / r.cycles),
                  strfmt("%llu",
                         static_cast<unsigned long long>(r.hot_blocks)),
                  strfmt("%llu",
                         static_cast<unsigned long long>(r.adopted))});
    }
    std::printf("%s\n", t.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (int rc = bench::handleArgs(argc, argv); rc >= 0)
        return rc;
    bench::banner("Asynchronous hot-translation pipeline",
                  "section 2's two-phase split, decoupled "
                  "(no paper figure)");

    bench::Report rep("case_async_pipeline");
    guest::WorkloadParams gz;
    gz.outer_iters = 60;
    gz.size = 24000;
    sweep(guest::buildStream("gzip", gz), rep);

    guest::WorkloadParams bz;
    bz.outer_iters = 50;
    bz.size = 28000;
    sweep(guest::buildStream("bzip2", bz), rep);

    rep.write();
    std::printf("Interpretation: workers absorb the optimization "
                "sessions, so guest-visible\nstall shrinks to "
                "enqueue + publication; architectural results are "
                "bit-exact\nacross every worker count (enforced by "
                "tests/async_pipeline_test.cc).\n");
    return 0;
}
