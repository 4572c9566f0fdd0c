/**
 * @file
 * Workload definitions, seeded parameter draws, the interpreter oracle
 * and the span recorder's read side.
 */

#include <algorithm>
#include <cmath>

#include "bench.hh"
#include "harness/exec.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace perfbench
{

using namespace el;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
Spans::chromeJson(const std::vector<std::string> &programs) const
{
    json::Writer w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject();
        w.kv("name", s.name);
        w.kv("ph", "X");
        w.kv("pid", 0);
        w.kv("tid", 0);
        w.kv("ts", s.t0 * 1e6);
        w.kv("dur", (s.t1 - s.t0) * 1e6);
        w.key("args");
        w.beginObject();
        w.kv("id", static_cast<int64_t>(i));
        w.kv("parent", static_cast<int64_t>(s.parent));
        w.kv("pass", static_cast<int64_t>(s.pass));
        if (s.program >= 0)
            w.kv("program", programs[s.program]);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

namespace
{

using Builder = guest::Workload (*)(const std::string &,
                                    guest::WorkloadParams);

Builder
builderFor(const std::string &kernel)
{
    static const std::map<std::string, Builder> builders = {
        {"stream", guest::buildStream},
        {"pointer_chase", guest::buildPointerChase},
        {"branchy", guest::buildBranchy},
        {"parser", guest::buildParser},
        {"matrix", guest::buildMatrix},
        {"bigcode", guest::buildBigCode},
        {"fp", guest::buildFpKernel},
        {"sse", guest::buildSseKernel},
        {"mmx", guest::buildMmxKernel},
    };
    auto it = builders.find(kernel);
    el_assert(it != builders.end(), "no builder for kernel %s",
              kernel.c_str());
    return it->second;
}

/** The suite entries named @p names, in that order. */
std::vector<guest::Workload>
pick(const std::vector<guest::Workload> &suite,
     const std::vector<std::string> &names)
{
    std::vector<guest::Workload> out;
    for (const std::string &n : names)
        for (const guest::Workload &w : suite)
            if (w.name == n)
                out.push_back(w);
    el_assert(out.size() == names.size(), "suite lacks a program");
    return out;
}

/** A value within ±param_band of @p v (at least 1). */
uint32_t
draw(Rng &rng, uint32_t v)
{
    double lo = v * (1 - param_band), hi = v * (1 + param_band);
    double x = lo + (hi - lo) * (static_cast<double>(rng.range(1u << 20)) /
                                 static_cast<double>(1u << 20));
    return std::max<uint32_t>(1, static_cast<uint32_t>(std::lround(x)));
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "hot_loops", "flat_code", "fp_media", "observed"};
    return names;
}

bool
makeWorkload(const std::string &name, uint64_t seed, Workload *out)
{
    std::vector<guest::Workload> suite;
    if (name == "hot_loops") {
        suite = pick(guest::specIntSuite(btlib::OsAbi::Linux),
                     {"gzip", "mcf", "crafty"});
    } else if (name == "flat_code" || name == "observed") {
        suite = pick(guest::specIntSuite(btlib::OsAbi::Linux), {"gcc"});
        suite.push_back(
            pick(guest::sysmarkSuite(btlib::OsAbi::Windows), {"wordproc"})
                .front());
    } else if (name == "fp_media") {
        suite = pick(guest::specFpSuite(btlib::OsAbi::Linux),
                     {"wupwise", "applu", "swim", "art"});
    } else {
        return false;
    }
    out->name = name;
    out->observed = name == "observed";
    out->programs.clear();

    Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
    if (seed != 0) {
        for (size_t i = suite.size(); i > 1; --i)
            std::swap(suite[i - 1], suite[rng.range(i)]);
    }
    for (guest::Workload &w : suite) {
        Program p;
        p.workload = w;
        if (seed != 0) {
            p.workload.params.outer_iters =
                draw(rng, w.params.outer_iters);
            p.workload = buildImage(p.workload);
        }
        p.has_native = w.kernel == "stream" ||
                       w.kernel == "pointer_chase" ||
                       w.kernel == "branchy" || w.kernel == "parser" ||
                       w.kernel == "matrix" || w.kernel == "bigcode";
        out->programs.push_back(std::move(p));
    }
    return true;
}

guest::Workload
buildImage(const guest::Workload &p)
{
    return builderFor(p.kernel)(p.name, p.params);
}

uint64_t
hashBytes(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
archHash(const ia32::State &st)
{
    // Exactly the fields equalsArch() compares: non-arithmetic EFLAGS
    // bits and empty x87 slots are not architectural results.
    std::string b;
    auto put = [&b](const void *p, size_t n) {
        b.append(static_cast<const char *>(p), n);
    };
    for (uint32_t g : st.gpr)
        put(&g, sizeof(g));
    put(&st.eip, sizeof(st.eip));
    uint32_t fl = st.eflags & ia32::FlagsArith;
    put(&fl, sizeof(fl));
    put(&st.fpu.top, sizeof(st.fpu.top));
    for (int i = 0; i < 8; ++i) {
        uint8_t tag = static_cast<uint8_t>(st.fpu.tag[i]);
        put(&tag, 1);
        if (st.fpu.tag[i] == ia32::FpTag::Valid) {
            double d = static_cast<double>(st.fpu.st[i]);
            if (std::isnan(d))
                d = NAN;
            put(&d, sizeof(d));
        }
    }
    for (const ia32::XmmReg &x : st.xmm)
        put(x.bytes.data(), x.bytes.size());
    return hashBytes(b);
}

void
runOracle(Program *p)
{
    Clock::time_point t0 = Clock::now();
    harness::Outcome o =
        harness::runInterpreter(p->workload.image, p->workload.params.abi);
    p->oracle_s = secondsSince(t0);
    p->expected.exited = o.exited;
    p->expected.exit_code = o.exit_code;
    p->expected.console_hash = hashBytes(o.console);
    p->expected.state_hash = archHash(o.final_state);
    p->expected.guest_insns = o.guest_insns;
}

} // namespace perfbench
