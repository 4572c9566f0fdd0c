/**
 * @file
 * Shared declarations of the two-clock benchmark: workload programs,
 * host-time spans, translated runs and their simulated fingerprints,
 * and the per-layer replays.
 *
 * Host time is std::chrono::steady_clock wall time of this process.
 * Simulated time is the IPF machine's cycle count. Every span is taken
 * here, around calls into a layer's public functions; nothing inside
 * the translator is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btlib/os_sim.hh"
#include "core/options.hh"
#include "core/runtime.hh"
#include "guest/workloads.hh"
#include "mem/memory.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);

/** Host seconds of one run of the fixed calibration kernel. */
double calibrate();

/**
 * The calibration kernel's time on an unloaded 4-core 2.1 GHz x86-64
 * host. host_s is wall time scaled by calibration_ref_s / calibrate(),
 * measured around each run: seconds at that reference speed.
 */
constexpr double calibration_ref_s = 0.020;

// ----- host-time spans ----------------------------------------------------

/**
 * In-memory span recorder. Spans nest (each records its parent) and
 * carry the pass they belong to; they are written out once, at the end
 * of the run. A disabled recorder records nothing, so untraced passes
 * pay one branch per call site.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        int program; //!< Index into the workload's programs, or -1.
        int pass;    //!< Pass index, or -1 outside the timed passes.
        int parent;  //!< Index of the enclosing span, or -1.
        double t0, t1; //!< Seconds since the recorder was created.
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Spans *s, int id) : s_(s), id_(id) {}
        ~Scope()
        {
            if (s_)
                s_->close(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *s_;
        int id_;
    };

    Spans() : origin_(Clock::now()) {}

    void setOn(bool on) { on_ = on; }
    void setPass(int pass) { pass_ = pass; }

    [[nodiscard]] Scope
    scope(const char *name, int program = -1)
    {
        if (!on_)
            return Scope(nullptr, -1);
        int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, program, pass_, parent, now(), 0});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return Scope(this, open_.back());
    }

    /** Chrome trace-event JSON of every recorded span. */
    std::string chromeJson(const std::vector<std::string> &programs) const;

  private:
    void
    close(int id)
    {
        spans_[id].t1 = now();
        open_.pop_back();
    }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

    Clock::time_point origin_;
    bool on_ = false;
    int pass_ = -1;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ----- workloads ------------------------------------------------------------

/** The guest's observable result, as the interpreter oracle computes it. */
struct Expected
{
    bool exited = false;
    int32_t exit_code = 0;
    uint64_t console_hash = 0;
    uint64_t state_hash = 0;
    uint64_t guest_insns = 0; //!< Instructions the oracle retired.
};

/** One guest program of a workload, built from a suite entry. */
struct Program
{
    el::guest::Workload workload; //!< Name, kernel, params and image.
    Expected expected;            //!< From harness::runInterpreter.
    double oracle_s = 0;          //!< Host time of the oracle run.
    bool has_native = false;      //!< A native IPF kernel exists (Fig. 5).
    double ref_cycles = 0;        //!< Native kernel or scaled IA-32 cycles.
    double native_s = 0;          //!< Host time of nativeCycles().
};

struct Workload
{
    std::string name;
    bool observed = false; //!< Tracer, profiler, metrics and audit on.
    std::vector<Program> programs;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Half-width of the seeded parameter band, as a share of the suite value. */
constexpr double param_band = 0.03;

/**
 * The programs of workload @p name for @p seed, images built but not
 * yet run. Seed 0 is the paper suite exactly; any other seed shuffles
 * the program order and draws each outer_iters within ±param_band of
 * the suite value. Sizes stay: the working set against the modelled
 * caches is part of what each program stands for (mcf's 1.25 MB chase).
 * Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, uint64_t seed, Workload *out);

/** Rebuild @p p's image with its builder (the set-up path). */
el::guest::Workload buildImage(const el::guest::Workload &p);

/** Hash of the architectural state ia32::State::equalsArch compares. */
uint64_t archHash(const el::ia32::State &state);
uint64_t hashBytes(const std::string &s);

/** Run the oracle for @p p (fills expected and oracle_s). */
void runOracle(Program *p);

// ----- translated runs ------------------------------------------------------

/** A finished translated run kept alive for inspection. */
struct Live
{
    std::unique_ptr<el::mem::Memory> memory;
    std::unique_ptr<el::btlib::SimOsBase> os;
    std::unique_ptr<el::core::Runtime> runtime;
};

/** Simulated-clock numbers of one run: bit-identical on every pass. */
using SimRecord = std::map<std::string, double>;

struct RunConfig
{
    bool observed = false;
    std::string artifact_dir;    //!< Where observed runs write artifacts.
    el::FaultConfig fault;       //!< Miscompile self-test only.
    uint64_t max_run_cycles = 0; //!< 0: the Options default.
};

struct RunResult
{
    double wall_s = 0;  //!< Load, Runtime construction, run, artifacts.
    double run_s = 0;   //!< Runtime::run plus quiesce.
    bool match = false; //!< Guest result equals the oracle's.
    std::string why;    //!< First difference when !match.
    SimRecord sim;
    uint64_t dropped_events = 0; //!< Trace events lost (observed runs).
    std::unique_ptr<Live> live;  //!< Set when the caller asked to keep it.
};

/** Run @p p translated once; spans go to @p spans under @p index. */
RunResult runTranslated(const Program &p, int index, const RunConfig &cfg,
                        Spans &spans, bool keep);

/**
 * Seconds to build, load and construct a Runtime for @p p; the build
 * alone is added to @p build_s.
 */
double setupOnce(const Program &p, int index, Spans &spans,
                 double *build_s);

// ----- per-layer replays ----------------------------------------------------

/** Host time of each layer, replayed over one program's translations. */
struct ReplayTotals
{
    double decode_s = 0;
    uint64_t decode_insns = 0;
    double cold_s = 0;
    uint64_t cold_insns = 0;
    double select_s = 0;
    double session_s = 0;
    uint64_t hot_insns = 0;
    double commit_s = 0;
    double publish_s = 0;
    uint64_t hot_calls = 0;

    void add(const ReplayTotals &o);
};

/**
 * Replay @p ref's translations in a fresh Runtime: decode each cold
 * block, translate it cold, then select, emit, publish and commit each
 * hot trace. Spans go to @p spans.
 */
ReplayTotals replayTranslations(const Program &p, int index, Live &ref,
                                Spans &spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
