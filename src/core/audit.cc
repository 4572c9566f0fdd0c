#include "core/audit.hh"

#include <array>
#include <cmath>
#include <cstdint>
#include <map>

#include "core/provenance.hh"
#include "core/report.hh"
#include "core/runtime.hh"
#include "support/faultinject.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/strfmt.hh"

namespace el::core
{

using ipf::Bucket;
using trace::Kind;

namespace
{

/** Closure tolerance for cycle sums: all charges are integer-valued
 *  doubles well below 2^53, so sums are exact; anything beyond
 *  rounding noise is a real leak. */
double
cycleTolerance(double total)
{
    return 0.5 + 1e-9 * std::fabs(total);
}

// ----- provenance legality ----------------------------------------------

/** Legal (state, cause) pairs — the edges of the lifecycle state
 *  machine as actually emitted by the translator and runtime. A pair
 *  outside this table means a corrupted ledger or an undocumented
 *  transition; either way, a human should look. */
bool
legalPair(ProvState s, ProvCause c)
{
    switch (s) {
      case ProvState::Decoded:
        return c == ProvCause::None || c == ProvCause::SmcWrite;
      case ProvState::Cold:
        return c == ProvCause::None;
      case ProvState::HotQueued:
        return c == ProvCause::Heat || c == ProvCause::None;
      case ProvState::Session:
        return c == ProvCause::SessionOk ||
               c == ProvCause::SessionAbort;
      case ProvState::Published:
        return c == ProvCause::SessionOk;
      case ProvState::Adopted:
        return c == ProvCause::StoreHit;
      case ProvState::Persisted:
        return c == ProvCause::StoreRecord;
      case ProvState::Discarded:
        return c == ProvCause::Misalign || c == ProvCause::SmcWrite ||
               c == ProvCause::SmcMismatch ||
               c == ProvCause::StaleGeneration ||
               c == ProvCause::CacheFlush ||
               c == ProvCause::CachePressure ||
               c == ProvCause::QuarantineBlocked ||
               c == ProvCause::QuarantinePurge ||
               c == ProvCause::SessionAbort || c == ProvCause::None;
      case ProvState::Quarantined:
        return c == ProvCause::None ||
               c == ProvCause::SentinelDivergence;
      case ProvState::Retranslated:
        return c == ProvCause::Cooldown;
      case ProvState::Pinned:
        return c == ProvCause::None;
    }
    return false;
}

void
auditProvenance(Runtime &rt, audit::Result &r)
{
    const ProvenanceLedger *pl = rt.provenance();
    if (!pl)
        return;
    for (const auto &[eip, timeline] : pl->all()) {
        for (const ProvEvent &e : timeline) {
            r.check(legalPair(e.state, e.cause), "prov.legal_pair",
                    strfmt("eip 0x%08x: illegal transition %s/%s", eip,
                           provStateName(e.state),
                           provCauseName(e.cause)));
            // A hot publication or store adoption always names the
            // committed block; a missing id means the ledger was fed
            // before the block existed.
            if (e.state == ProvState::Published ||
                e.state == ProvState::Adopted)
                r.check(e.block_id >= 0, "prov.block_id",
                        strfmt("eip 0x%08x: %s event without a block "
                               "id",
                               eip, provStateName(e.state)));
            r.check(e.ts >= 0, "prov.timestamp",
                    strfmt("eip 0x%08x: negative timestamp %g", eip,
                           e.ts));
        }
    }
}

// ----- flight-recorder cross-counts -------------------------------------

void
auditFlight(Runtime &rt, audit::Result &r)
{
    const trace::Tracer *box = rt.blackBox();
    if (!box)
        return;
    std::vector<trace::Event> events = box->snapshot();
    std::map<Kind, uint64_t> counts;
    for (const trace::Event &e : events)
        ++counts[e.kind];
    const bool complete = box->dropped() == 0;
    StatGroup stats = mergedStats(rt);

    // Each pairing below records the flight event and bumps the
    // counter on the same code path, so with a complete flight the
    // counts match exactly; with an overflowed (drop-oldest) ring the
    // flight can only undercount. A flight count *above* the counter
    // is corruption in every case.
    auto crossCheck = [&](Kind kind, uint64_t stat_total,
                          const std::string &stat_name) {
        uint64_t seen = counts[kind];
        const char *kn = trace::kindInfo(kind).box;
        r.check(seen <= stat_total, "flight.cross_count",
                strfmt("%llu %s flight event(s) exceed %s = %llu",
                       static_cast<unsigned long long>(seen), kn,
                       stat_name.c_str(),
                       static_cast<unsigned long long>(stat_total)));
        if (complete)
            r.check(seen == stat_total, "flight.cross_count",
                    strfmt("%s flight events (%llu) != %s (%llu) with "
                           "zero ring drops",
                           kn, static_cast<unsigned long long>(seen),
                           stat_name.c_str(),
                           static_cast<unsigned long long>(
                               stat_total)));
    };

    crossCheck(Kind::ColdXlate, stats.get("xlate.cold_blocks"),
               "xlate.cold_blocks");
    crossCheck(Kind::CacheFlush, stats.get("recover.cache_flush"),
               "recover.cache_flush");
    crossCheck(Kind::SmcInvalidate, stats.get("smc.invalidations"),
               "smc.invalidations");
    crossCheck(Kind::HotCommit,
               stats.get("xlate.hot_blocks") +
                   stats.get("persist.adopted_blocks"),
               "xlate.hot_blocks + persist.adopted_blocks");
    crossCheck(Kind::GuestFault, stats.get("faults.delivered"),
               "faults.delivered");
    crossCheck(Kind::Divergence, stats.get("sentinel.divergence"),
               "sentinel.divergence");
    if (const FaultInjector *fi = rt.faultInjector()) {
        // Guest-lane fires and worker-lane session aborts alike.
        uint64_t seen = counts[Kind::FaultInject] + counts[Kind::WorkerFault];
        r.check(seen <= fi->totalFires(), "flight.cross_count",
                strfmt("%llu fault_inject flight event(s) exceed "
                       "injector fires = %llu",
                       static_cast<unsigned long long>(seen),
                       static_cast<unsigned long long>(
                           fi->totalFires())));
    }

    // Every event's lane must be a real lane: 0 (guest) or 1+slot
    // within the configured worker count.
    uint32_t max_lane =
        static_cast<uint32_t>(rt.options().translation_threads);
    for (const trace::Event &e : events)
        r.check(e.lane <= max_lane, "flight.lane",
                strfmt("%s event on lane %u with %u worker slot(s)",
                       trace::kindInfo(e.kind).box, e.lane, max_lane));
}

// ----- schema self-checks -----------------------------------------------

void
checkProducer(const json::Value &doc, const char *what,
              const buildinfo::ProducerStamp &expect, audit::Result &r)
{
    const json::Value *p = doc.find("producer");
    if (!p || !p->isObject()) {
        r.fail("schema.producer",
               strfmt("%s: no producer stamp", what));
        return;
    }
    r.check(p->strOr("tool", "") == expect.tool, "schema.producer",
            strfmt("%s: producer.tool \"%s\" != \"%s\"", what,
                   p->strOr("tool", "").c_str(), expect.tool.c_str()));
}

void
auditSchemas(Runtime &rt, const AuditContext &ctx, audit::Result &r)
{
    // Render each document the run would emit and re-parse it: the
    // emitters and parsers live in different layers, so a drifted
    // field name or a broken writer shows up here before a reader
    // chokes on a real artifact in CI.
    ReportInfo info;
    info.workload = ctx.workload;
    info.producer = ctx.producer;
    std::string text = runReportJson(rt, info);
    json::Value doc;
    std::string err;
    if (!json::Parser::parse(text, &doc, &err)) {
        r.fail("schema.report", "run report does not re-parse: " + err);
    } else {
        r.check(doc.strOr("kind", "") == "el-report", "schema.report",
                "run report kind != el-report");
        r.check(doc.numberOr("version", 0) == 2, "schema.report",
                "run report version != 2");
        r.check(doc.find("exit") != nullptr, "schema.report",
                "run report has no exit object");
        if (ctx.producer)
            checkProducer(doc, "report", *ctx.producer, r);
        const json::Value *attr = doc.find("attribution");
        r.check(attr && attr->isObject(), "schema.report",
                "run report has no attribution object");
        if (attr && attr->isObject()) {
            double total = attr->numberOr("total", -1);
            double cycles = doc.numberOr("cycles", 0);
            r.check(std::fabs(total - cycles) <=
                        cycleTolerance(cycles),
                    "schema.report",
                    strfmt("serialized attribution total %.17g != "
                           "cycles %.17g",
                           total, cycles));
        }
    }

    if (metrics::Registry *m = rt.options().metrics) {
        std::string line = m->snapshotJson(rt.machine().totalCycles());
        json::Value mdoc;
        if (!json::Parser::parse(line, &mdoc, &err)) {
            r.fail("schema.metrics",
                   "metrics snapshot does not re-parse: " + err);
        } else {
            r.check(mdoc.strOr("kind", "") == "el-metrics",
                    "schema.metrics", "snapshot kind != el-metrics");
            r.check(mdoc.numberOr("version", 0) == 3, "schema.metrics",
                    "snapshot version != 3");
            r.check(mdoc.find("counters") != nullptr, "schema.metrics",
                    "snapshot has no counters object");
        }
    }
}

} // namespace

audit::Result
auditClosure(Runtime &rt)
{
    audit::Result r;
    if (!rt.initOk())
        return r;
    const ipf::Machine &m = rt.machine();
    const ipf::BucketStats &st = m.stats();
    double total = m.totalCycles();
    double tol = cycleTolerance(total);

    // The central closure identity: every cycle was charged either by
    // closeGroup() (and then also into a per-block cost) or by
    // chargeCycles() (and then also into the synthetic accumulator).
    // Cycles slipped into the buckets any other way break this sum.
    if (m.trackBlockCycles()) {
        double block_cycles = 0;
        double block_insns = 0;
        for (const ipf::BlockCost &cost : m.blockCosts()) {
            block_cycles += cost.cycles;
            block_insns += cost.insns;
        }
        double accounted = block_cycles + m.syntheticCycles();
        r.check(std::fabs(accounted - total) <= tol, "closure.blocks",
                strfmt("block cycles %.17g + synthetic %.17g = %.17g "
                       "!= total %.17g (leak %+.17g)",
                       block_cycles, m.syntheticCycles(), accounted,
                       total, total - accounted));
        r.check(std::fabs(block_insns -
                          static_cast<double>(m.retired())) <= 0.5,
                "closure.block_insns",
                strfmt("block insns %.0f != retired %llu", block_insns,
                       static_cast<unsigned long long>(m.retired())));
    }

    uint64_t bucket_insns = 0;
    for (size_t b = 0; b < static_cast<size_t>(Bucket::NumBuckets); ++b)
        bucket_insns += st.insns[b];
    r.check(bucket_insns == m.retired(), "closure.bucket_insns",
            strfmt("bucket insns %llu != retired %llu",
                   static_cast<unsigned long long>(bucket_insns),
                   static_cast<unsigned long long>(m.retired())));

    static const char *bucket_names[] = {"hot", "cold", "overhead",
                                         "native", "idle"};
    for (size_t b = 0; b < static_cast<size_t>(Bucket::NumBuckets);
         ++b) {
        r.check(m.misalignCycles()[b] <= st.cycles[b] + tol,
                "closure.misalign",
                strfmt("misalign cycles %.17g exceed %s bucket %.17g",
                       m.misalignCycles()[b], bucket_names[b],
                       st.cycles[b]));
        r.check(st.cycles[b] >= -tol, "closure.bucket_sign",
                strfmt("%s bucket is negative: %.17g", bucket_names[b],
                       st.cycles[b]));
    }
    r.check(rt.faultOverheadCycles() <=
                st.cycles[static_cast<size_t>(Bucket::Overhead)] + tol,
            "closure.fault_overhead",
            strfmt("guard-recovery overhead %.17g exceeds overhead "
                   "bucket %.17g",
                   rt.faultOverheadCycles(),
                   st.cycles[static_cast<size_t>(Bucket::Overhead)]));

    // The Figure-6 view re-derives from the same buckets; it must
    // stay a partition (non-negative, summing back to the total).
    Attribution a = attributionOf(rt);
    const struct
    {
        const char *name;
        double v;
    } cats[] = {{"cold_code", a.cold_code},
                {"hot_code", a.hot_code},
                {"btgeneric", a.btgeneric},
                {"fault_handling", a.fault_handling},
                {"native", a.native},
                {"idle", a.idle}};
    for (const auto &c : cats)
        r.check(c.v >= -tol, "closure.attribution_sign",
                strfmt("attribution %s is negative: %.17g", c.name,
                       c.v));
    r.check(std::fabs(a.total() - total) <= tol,
            "closure.attribution_total",
            strfmt("attribution total %.17g != machine total %.17g",
                   a.total(), total));
    return r;
}

audit::Result
auditRun(Runtime &rt, const AuditContext &ctx)
{
    audit::Result r = auditClosure(rt);
    if (!rt.initOk())
        return r;
    auditFlight(rt, r);
    auditProvenance(rt, r);
    auditSchemas(rt, ctx, r);
    return r;
}

} // namespace el::core
