#include "core/report.hh"

#include <cstring>
#include <fstream>

#include "core/runtime.hh"
#include "ia32/decoder.hh"
#include "ia32/state.hh"
#include "persist/store.hh"
#include "support/json.hh"
#include "support/profile.hh"
#include "support/strfmt.hh"
#include "support/trace.hh"
#include "support/wire.hh"

namespace el::core
{

using ipf::Bucket;

namespace
{

double
bucketCycles(const ipf::BucketStats &st, Bucket b)
{
    return st.cycles[static_cast<size_t>(b)];
}

double
misalignIn(const ipf::Machine &m, Bucket b)
{
    return m.misalignCycles()[static_cast<size_t>(b)];
}

} // namespace

GuestResult
guestResultOf(const ia32::State &st, const std::string &console,
              bool exited, int32_t exit_code)
{
    GuestResult r;
    r.exited = exited;
    r.exit_code = exit_code;

    uint64_t h = wire::fnv1a_basis;
    auto mix = [&h](const void *data, size_t n) {
        h = wire::fnv1a(data, n, h);
    };
    for (uint32_t g : st.gpr)
        mix(&g, sizeof(g));
    mix(&st.eip, sizeof(st.eip));
    mix(&st.eflags, sizeof(st.eflags));
    // FP stack slots are hashed as double bit patterns: long double
    // objects carry 6 padding bytes of indeterminate value.
    for (int i = 0; i < 8; ++i) {
        double d = static_cast<double>(st.fpu.st[i]);
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(&bits, sizeof(bits));
        uint8_t tag = static_cast<uint8_t>(st.fpu.tag[i]);
        mix(&tag, sizeof(tag));
    }
    mix(&st.fpu.top, sizeof(st.fpu.top));
    mix(&st.fpu.control, sizeof(st.fpu.control));
    mix(&st.fpu.status, sizeof(st.fpu.status));
    for (const ia32::XmmReg &x : st.xmm)
        mix(x.bytes.data(), x.bytes.size());
    mix(&st.mxcsr, sizeof(st.mxcsr));
    r.state_hash = h;
    r.console_hash = wire::fnv1a(console.data(), console.size());
    return r;
}

Attribution
attributionOf(Runtime &rt)
{
    const ipf::Machine &m = rt.machine();
    const ipf::BucketStats &st = m.stats();
    double fault_overhead = rt.faultOverheadCycles();

    // Misalignment penalties were charged into the bucket of the
    // faulting instruction; pull them out of each bucket and pool them
    // with the runtime's guard-repair overhead. Every subtraction
    // re-appears as an addition in fault_handling, and all values are
    // integer-valued doubles, so total() reproduces the machine's
    // bucket sum exactly.
    Attribution a;
    a.cold_code = bucketCycles(st, Bucket::Cold) -
                  misalignIn(m, Bucket::Cold);
    a.hot_code =
        bucketCycles(st, Bucket::Hot) - misalignIn(m, Bucket::Hot);
    a.btgeneric = bucketCycles(st, Bucket::Overhead) -
                  misalignIn(m, Bucket::Overhead) - fault_overhead;
    a.native = bucketCycles(st, Bucket::Native) -
               misalignIn(m, Bucket::Native);
    a.idle =
        bucketCycles(st, Bucket::Idle) - misalignIn(m, Bucket::Idle);
    double misalign_total = 0;
    for (double c : m.misalignCycles())
        misalign_total += c;
    a.fault_handling = misalign_total + fault_overhead;
    return a;
}

StatGroup
mergedStats(Runtime &rt)
{
    // Translator and runtime counters are disjoint today; merging keeps
    // the JSON free of duplicate keys if that ever changes.
    StatGroup all;
    if (rt.initOk())
        all = rt.translator().stats;
    all.merge(rt.stats());
    if (rt.options().persist)
        all.merge(rt.options().persist->stats);
    if (rt.options().trace)
        all.set("trace.dropped_events",
                static_cast<double>(rt.options().trace->dropped()));
    if (const trace::Tracer *box = rt.blackBox())
        all.set("flight.dropped_events",
                static_cast<double>(box->dropped()));
    return all;
}

std::string
runReportJson(Runtime &rt, const std::string &workload,
              const GuestResult *guest,
              const buildinfo::ProducerStamp *producer)
{
    ipf::Machine &m = rt.machine();
    const ipf::BucketStats &st = m.stats();
    Attribution a = attributionOf(rt);

    json::Writer w;
    w.beginObject();
    w.kv("kind", "el-report");
    w.kv("version", 1);
    if (producer)
        buildinfo::writeStamp(w, *producer);
    w.kv("workload", workload);
    w.kv("cycles", m.totalCycles());
    w.kv("retired_ipf_insns", m.retired());
    w.kv("misaligned_accesses", m.misalignedAccesses());

    w.key("attribution");
    w.beginObject();
    w.kv("cold_code", a.cold_code);
    w.kv("hot_code", a.hot_code);
    w.kv("btgeneric", a.btgeneric);
    w.kv("fault_handling", a.fault_handling);
    w.kv("native", a.native);
    w.kv("idle", a.idle);
    w.kv("total", a.total());
    w.endObject();

    w.key("buckets");
    w.beginObject();
    static const char *bucket_names[] = {"hot", "cold", "overhead",
                                         "native", "idle"};
    for (size_t b = 0;
         b < static_cast<size_t>(Bucket::NumBuckets); ++b) {
        w.key(bucket_names[b]);
        w.beginObject();
        w.kv("cycles", st.cycles[b]);
        w.kv("insns", st.insns[b]);
        w.endObject();
    }
    w.endObject();

    if (guest) {
        // The architectural outcome, isolated from every timing-model
        // scalar above: warm-vs-cold CI comparisons diff exactly this
        // object (cycles legitimately differ; guest results must not).
        w.key("guest");
        w.beginObject();
        w.kv("exited", guest->exited);
        w.kv("exit_code", static_cast<int64_t>(guest->exit_code));
        w.kv("state_hash", strfmt("%016llx",
                                  static_cast<unsigned long long>(
                                      guest->state_hash)));
        w.kv("console_hash", strfmt("%016llx",
                                    static_cast<unsigned long long>(
                                        guest->console_hash)));
        w.endObject();
    }

    StatGroup all_stats = mergedStats(rt);
    w.key("stats");
    w.beginObject();
    for (const auto &[name, value] : all_stats.all())
        w.kv(name, value);
    w.endObject();

    if (m.trackBlockCycles()) {
        w.key("blocks");
        w.beginArray();
        const std::vector<ipf::BlockCost> &books = m.blockCosts();
        for (size_t k = 0; k < books.size(); ++k) {
            const ipf::BlockCost &cost = books[k];
            if (cost.insns == 0)
                continue;
            int32_t id = static_cast<int32_t>(k) - 1;
            w.beginObject();
            w.kv("id", id);
            const BlockInfo *bi = rt.translator().blockById(id);
            if (bi) {
                w.kv("eip", static_cast<uint64_t>(bi->entry_eip));
                w.kv("kind",
                     bi->kind == BlockKind::Hot ? "hot" : "cold");
            } else {
                // id -1: runtime-emitted stub code with no block.
                w.kv("kind", "runtime");
            }
            w.kv("cycles", cost.cycles);
            w.kv("insns", cost.insns);
            w.endObject();
        }
        w.endArray();
    }

    w.endObject();
    return w.str() + "\n";
}

bool
writeRunReport(Runtime &rt, const std::string &workload,
               const std::string &path, const GuestResult *guest,
               const buildinfo::ProducerStamp *producer)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f << runReportJson(rt, workload, guest, producer);
    return static_cast<bool>(f);
}

namespace
{

const char *
insnKindName(prof::InsnKind k)
{
    switch (k) {
      case prof::InsnKind::Plain: return "plain";
      case prof::InsnKind::Cond: return "cond";
      case prof::InsnKind::Jump: return "jump";
      case prof::InsnKind::CallDirect: return "call";
      case prof::InsnKind::Indirect: return "indirect";
      case prof::InsnKind::Stop: return "stop";
    }
    return "?";
}

} // namespace

std::string
profileJson(Runtime &rt, const prof::Profiler &prof,
            const std::string &workload,
            const buildinfo::ProducerStamp *producer)
{
    ipf::Machine &m = rt.machine();

    json::Writer w;
    w.beginObject();
    w.kv("kind", "el-profile");
    w.kv("version", 1);
    if (producer)
        buildinfo::writeStamp(w, *producer);
    w.kv("workload", workload);
    w.kv("cycles", m.totalCycles());

    w.key("counters");
    w.beginObject();
    StatGroup prof_counters = prof.counters();
    for (const auto &[name, value] : prof_counters.all())
        w.kv(name, value);
    w.endObject();

    // Per-translation costs joined onto canonical guest entries. A
    // canonical block may have several translations (cold variants,
    // misalignment stages, a hot trace rooted at it).
    std::map<uint32_t, std::vector<const BlockInfo *>> xlate_at;
    if (m.trackBlockCycles()) {
        for (const auto &bi : rt.translator().allBlocks())
            if (bi && m.blockCost(bi->id))
                xlate_at[bi->entry_eip].push_back(bi.get());
    }

    w.key("blocks");
    w.beginArray();
    for (const auto &[entry, b] : prof.blocks()) {
        w.beginObject();
        w.kv("entry", static_cast<uint64_t>(entry));
        auto ex = prof.blockExecs().find(entry);
        w.kv("execs", ex == prof.blockExecs().end() ? uint64_t(0)
                                                    : ex->second);
        w.kv("insns", static_cast<uint64_t>(b.insns));
        w.kv("term", insnKindName(b.kind));
        w.kv("term_ip", static_cast<uint64_t>(b.term_ip));

        w.key("disasm");
        w.beginArray();
        uint32_t ip = entry;
        for (uint32_t k = 0; k < b.insns; ++k) {
            ia32::Insn insn;
            if (!ia32::decode(rt.memory(), ip, &insn)) {
                w.str(strfmt("%08x: (undecodable)", ip));
                break;
            }
            w.str(insn.toString());
            ip = insn.next();
        }
        w.endArray();

        auto xl = xlate_at.find(entry);
        if (xl != xlate_at.end()) {
            w.key("xlate");
            w.beginArray();
            for (const BlockInfo *bi : xl->second) {
                const ipf::BlockCost &cost = *m.blockCost(bi->id);
                w.beginObject();
                w.kv("id", bi->id);
                w.kv("kind",
                     bi->kind == BlockKind::Hot ? "hot" : "cold");
                w.kv("origin",
                     bi->loaded_from_store ? "loaded" : "local");
                w.kv("cycles", cost.cycles);
                w.kv("ipf_insns", cost.insns);
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();

    w.key("cond_sites");
    w.beginArray();
    for (const auto &[ip, cs] : prof.condSites()) {
        w.beginObject();
        w.kv("ip", static_cast<uint64_t>(ip));
        w.kv("taken_eip", static_cast<uint64_t>(cs.taken_eip));
        w.kv("fall_eip", static_cast<uint64_t>(cs.fall_eip));
        w.kv("taken", cs.taken);
        w.kv("fall", cs.fall);
        w.kv("via_link", cs.via_link);
        w.kv("via_dispatch", cs.via_dispatch);
        w.endObject();
    }
    w.endArray();

    w.key("indirect_sites");
    w.beginArray();
    for (const auto &[ip, site] : prof.indirectSites()) {
        w.beginObject();
        w.kv("ip", static_cast<uint64_t>(ip));
        w.kv("execs", site.execs);
        w.kv("hits", site.hits);
        w.kv("misses", site.misses);
        w.kv("evictions", site.evictions);
        w.key("targets");
        w.beginArray();
        for (const prof::TargetCount &tc : site.targets) {
            w.beginObject();
            w.kv("eip", static_cast<uint64_t>(tc.target));
            w.kv("count", tc.count);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str() + "\n";
}

bool
writeProfile(Runtime &rt, const prof::Profiler &prof,
             const std::string &workload, const std::string &path,
             const buildinfo::ProducerStamp *producer)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f << profileJson(rt, prof, workload, producer);
    return static_cast<bool>(f);
}

} // namespace el::core
