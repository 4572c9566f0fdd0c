#include "core/report.hh"

#include <cstring>
#include <fstream>
#include <set>

#include "core/runtime.hh"
#include "ia32/decoder.hh"
#include "ia32/state.hh"
#include "persist/store.hh"
#include "support/json.hh"
#include "support/profile.hh"
#include "support/sentinel.hh"
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

namespace
{

// ----- the sections of runReportJson(), in document order -----------

void
writeExit(json::Writer &w, Runtime &rt, const ReportInfo &info)
{
    w.key("exit");
    w.beginObject();
    w.kv("class", info.exit_class);
    w.kv("code", static_cast<int64_t>(info.exit_code));
    w.kv("resumed", info.resumed);
    if (info.resumed)
        w.kv("checkpoint_seq", info.checkpoint_seq);
    if (!rt.initOk())
        w.kv("init_error", rt.initError());
    w.endObject();
}

void
writeMachine(json::Writer &w, Runtime &rt)
{
    ipf::Machine &m = rt.machine();
    const ipf::BucketStats &st = m.stats();
    Attribution a = attributionOf(rt);

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
}

void
writeGuest(json::Writer &w, const GuestResult &guest)
{
    // The architectural outcome, isolated from every timing-model
    // scalar: warm-vs-cold CI comparisons diff exactly this object
    // (cycles legitimately differ; guest results must not).
    w.key("guest");
    w.beginObject();
    w.kv("exited", guest.exited);
    w.kv("exit_code", static_cast<int64_t>(guest.exit_code));
    w.kv("state_hash", strfmt("%016llx", static_cast<unsigned long long>(
                                             guest.state_hash)));
    w.kv("console_hash",
         strfmt("%016llx",
                static_cast<unsigned long long>(guest.console_hash)));
    w.endObject();
}

void
writeBlocks(json::Writer &w, Runtime &rt)
{
    w.key("blocks");
    w.beginArray();
    const std::vector<ipf::BlockCost> &books = rt.machine().blockCosts();
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
            w.kv("kind", bi->kind == BlockKind::Hot ? "hot" : "cold");
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

/** The black box's last-N event tail. */
void
writeFlight(json::Writer &w, const trace::Tracer &box)
{
    w.key("flight");
    w.beginObject();
    w.kv("ring_capacity", static_cast<uint64_t>(box.ringCapacity()));
    w.kv("dropped", box.dropped());
    w.key("events");
    w.beginArray();
    for (const trace::Event &e : box.snapshot()) {
        w.beginObject();
        w.kv("kind", trace::kindInfo(e.kind).box);
        w.kv("lane", static_cast<uint64_t>(e.lane));
        w.kv("ts", e.ts);
        w.kv("a", e.a);
        w.kv("b", e.b);
        w.kv("c", e.c);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/** Every entry point's lifecycle. */
void
writeProvenance(json::Writer &w, Runtime &rt,
                const ProvenanceLedger &pl)
{
    // The entry points whose hot translation was live (published, not
    // invalidated) when the run ended: a reader explaining the exit
    // starts from these — they are what the guest was executing.
    std::set<uint32_t> hot_live;
    if (rt.initOk())
        for (const auto &bi : rt.translator().allBlocks())
            if (bi && bi->kind == BlockKind::Hot && !bi->invalidated)
                hot_live.insert(bi->entry_eip);

    w.key("provenance");
    w.beginArray();
    for (const auto &[eip, ring] : pl.all()) {
        w.beginObject();
        w.kv("eip", static_cast<uint64_t>(eip));
        w.kv("in_hot_set", hot_live.count(eip) != 0);
        w.kv("dropped", ring.dropped());
        w.key("timeline");
        w.beginArray();
        for (const ProvEvent &e : ring) {
            w.beginObject();
            w.kv("state", provStateName(e.state));
            w.kv("cause", provCauseName(e.cause));
            w.kv("block", static_cast<int64_t>(e.block_id));
            w.kv("generation", static_cast<uint64_t>(e.generation));
            w.kv("ts", e.ts);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
}

/** The sentinel's health ledger and divergence log. */
void
writeSentinel(json::Writer &w, const sentinel::Sentinel &sn)
{
    w.key("sentinel");
    w.beginObject();
    w.kv("total_divergences", sn.totalDivergences());
    w.key("ledger");
    w.beginArray();
    for (const auto &[eip, r] : sn.ledger()) {
        w.beginObject();
        w.kv("eip", static_cast<uint64_t>(eip));
        w.kv("state", sentinel::healthName(r.state));
        w.kv("pinned", r.pinned);
        w.kv("divergences", static_cast<uint64_t>(r.divergences));
        w.kv("retries", static_cast<uint64_t>(r.retries));
        w.endObject();
    }
    w.endArray();
    w.key("divergences");
    w.beginArray();
    for (const sentinel::DivergenceInfo &d : sn.divergences()) {
        w.beginObject();
        w.kv("checkpoint_eip", static_cast<uint64_t>(d.checkpoint_eip));
        w.kv("boundary_eip", static_cast<uint64_t>(d.boundary_eip));
        w.kv("first_block", static_cast<int64_t>(d.first_block));
        w.kv("ip_lo", static_cast<uint64_t>(d.ip_lo));
        w.kv("ip_hi", static_cast<uint64_t>(d.ip_hi));
        w.kv("region_index", d.region_index);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/** The fault injector's seed and the sites that are armed or fired. */
void
writeFaultInjection(json::Writer &w, const FaultInjector &fi)
{
    w.key("fault_injection");
    w.beginObject();
    w.kv("seed", fi.config().seed);
    w.kv("total_fires", fi.totalFires());
    w.kv("total_consults", fi.totalConsults());
    w.key("sites");
    w.beginArray();
    for (std::size_t i = 0; i < num_fault_sites; ++i) {
        FaultSite site = static_cast<FaultSite>(i);
        uint16_t prob = fi.config().prob[i];
        uint64_t fires = fi.fires(site);
        if (!prob && !fires)
            continue;
        w.beginObject();
        w.kv("site", faultSiteName(site));
        w.kv("prob_1024", static_cast<uint64_t>(prob));
        w.kv("fires", fires);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

std::string
runReportJson(Runtime &rt, const ReportInfo &info)
{
    // Let in-flight pipeline sessions land and record their
    // worker-lane events, so the report is run-to-run deterministic.
    rt.quiesce();
    bool alive = rt.initOk();

    json::Writer w;
    w.beginObject();
    w.kv("kind", "el-report");
    w.kv("version", 2);
    if (info.producer)
        buildinfo::writeStamp(w, *info.producer);
    w.kv("workload", info.workload);
    writeExit(w, rt, info);
    if (alive)
        writeMachine(w, rt);
    if (info.guest)
        writeGuest(w, *info.guest);

    StatGroup all_stats = mergedStats(rt);
    w.key("stats");
    w.beginObject();
    for (const auto &[name, value] : all_stats.all())
        w.kv(name, value);
    w.endObject();

    if (alive && rt.machine().trackBlockCycles())
        writeBlocks(w, rt);
    if (const trace::Tracer *box = rt.blackBox())
        writeFlight(w, *box);
    if (const ProvenanceLedger *pl = rt.provenance())
        writeProvenance(w, rt, *pl);
    if (const sentinel::Sentinel *sn = rt.options().sentinel)
        writeSentinel(w, *sn);
    if (const FaultInjector *fi = rt.faultInjector())
        writeFaultInjection(w, *fi);

    w.endObject();
    return w.str() + "\n";
}

bool
writeRunReport(Runtime &rt, const ReportInfo &info,
               const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f << runReportJson(rt, info);
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
    for (const auto &[entry, row] : prof.blocks()) {
        const prof::GuestBlock &b = row.block;
        w.beginObject();
        w.kv("entry", static_cast<uint64_t>(entry));
        w.kv("execs", row.execs);
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
