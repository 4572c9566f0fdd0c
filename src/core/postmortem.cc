#include "core/postmortem.hh"

#include <fstream>
#include <set>

#include "core/report.hh"
#include "core/runtime.hh"
#include "support/json.hh"
#include "support/sentinel.hh"

namespace el::core
{

std::string
postmortemJson(Runtime &rt, const PostmortemInfo &info)
{
    // Let in-flight pipeline sessions land and record their
    // worker-lane events, so the bundle is run-to-run deterministic.
    rt.quiesce();

    json::Writer w;
    w.beginObject();
    w.kv("kind", "el-postmortem");
    w.kv("version", 1);
    if (info.producer)
        buildinfo::writeStamp(w, *info.producer);
    w.kv("workload", info.workload);

    w.key("exit");
    w.beginObject();
    w.kv("class", info.exit_class);
    w.kv("code", static_cast<int64_t>(info.exit_code));
    w.kv("resumed", info.resumed);
    if (info.resumed)
        w.kv("checkpoint_seq", info.checkpoint_seq);
    if (!rt.initOk()) {
        // A failed vtable handshake carries a reason; a failed runtime
        // area allocation (rt_base_ == 0) does not, so name it here.
        std::string why = rt.initError();
        if (why.empty())
            why = "runtime area allocation failed";
        w.kv("init_error", why);
    }
    w.endObject();

    bool alive = rt.initOk();
    if (alive)
        w.kv("cycles", rt.machine().totalCycles());

    // ----- flight: the black box's merged last-N event tail ----------
    if (const trace::Tracer *box = rt.blackBox()) {
        w.key("flight");
        w.beginObject();
        w.kv("ring_capacity",
             static_cast<uint64_t>(box->ringCapacity()));
        w.kv("dropped", box->dropped());
        w.key("events");
        w.beginArray();
        for (const trace::Event &e : box->snapshot()) {
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

    // ----- provenance: every entry point's lifecycle ----------------
    if (const ProvenanceLedger *pl = rt.provenance()) {
        // The entry points whose hot translation was live (published,
        // not invalidated) when the run ended: the postmortem reader
        // starts from these — they are what the guest was executing.
        std::set<uint32_t> hot_live;
        if (alive)
            for (const auto &bi : rt.translator().allBlocks())
                if (bi && bi->kind == BlockKind::Hot &&
                    !bi->invalidated)
                    hot_live.insert(bi->entry_eip);

        w.key("provenance");
        w.beginArray();
        for (const auto &[eip, ring] : pl->all()) {
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
                w.kv("generation",
                     static_cast<uint64_t>(e.generation));
                w.kv("ts", e.ts);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
    }

    // ----- sentinel: the health ledger + divergence log -------------
    if (const sentinel::Sentinel *sn = rt.options().sentinel) {
        w.key("sentinel");
        w.beginObject();
        w.kv("total_divergences", sn->totalDivergences());
        w.key("ledger");
        w.beginArray();
        for (const auto &[eip, r] : sn->ledger()) {
            w.beginObject();
            w.kv("eip", static_cast<uint64_t>(eip));
            w.kv("state", sentinel::healthName(r.state));
            w.kv("pinned", r.pinned);
            w.kv("divergences", static_cast<uint64_t>(r.divergences));
            w.kv("faults", static_cast<uint64_t>(r.faults));
            w.kv("guard_misses",
                 static_cast<uint64_t>(r.guard_misses));
            w.kv("retries", static_cast<uint64_t>(r.retries));
            w.endObject();
        }
        w.endArray();
        w.key("divergences");
        w.beginArray();
        for (const sentinel::DivergenceInfo &d : sn->divergences()) {
            w.beginObject();
            w.kv("checkpoint_eip",
                 static_cast<uint64_t>(d.checkpoint_eip));
            w.kv("boundary_eip",
                 static_cast<uint64_t>(d.boundary_eip));
            w.kv("first_block", static_cast<int64_t>(d.first_block));
            w.kv("ip_lo", static_cast<uint64_t>(d.ip_lo));
            w.kv("ip_hi", static_cast<uint64_t>(d.ip_hi));
            w.kv("region_index", d.region_index);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    // ----- stats: the same merged namespace as the run report -------
    StatGroup all_stats = mergedStats(rt);
    w.key("stats");
    w.beginObject();
    for (const auto &[name, value] : all_stats.all())
        w.kv(name, value);
    w.endObject();

    // ----- fault injection: seed + which sites actually fired -------
    if (const FaultInjector *fi = rt.faultInjector()) {
        w.key("fault_injection");
        w.beginObject();
        w.kv("seed", fi->config().seed);
        w.kv("total_fires", fi->totalFires());
        w.kv("total_consults", fi->totalConsults());
        w.key("sites");
        w.beginArray();
        for (std::size_t i = 0; i < num_fault_sites; ++i) {
            FaultSite site = static_cast<FaultSite>(i);
            uint16_t prob = fi->config().prob[i];
            uint64_t fires = fi->fires(site);
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

    w.endObject();
    return w.str() + "\n";
}

bool
writePostmortem(Runtime &rt, const PostmortemInfo &info,
                const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f << postmortemJson(rt, info);
    return static_cast<bool>(f);
}

} // namespace el::core
