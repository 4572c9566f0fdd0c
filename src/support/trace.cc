#include "support/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>

#include "support/json.hh"

namespace el::trace
{

namespace
{

struct Row
{
    Kind kind;
    KindInfo info;
};

/** A kind only the black box keeps. */
constexpr KindInfo
boxOnly(const char *name)
{
    KindInfo k;
    k.box = name;
    return k;
}

/** The kind table, in Kind order (checked below). */
constexpr Row rows[] = {
    {Kind::Dispatch, boxOnly("dispatch")},
    {Kind::ColdXlate,
     {"cold_xlate", "cold_translate", Cat::Translate, 'X', false,
      {{"eip", 0}, {"block", 1}, {"insns", 2}}}},
    {Kind::HotEnqueue,
     {"hot_enqueue", "hot_snapshot", Cat::Hot, 'X', false,
      {{"eip", 0}, {"block", 3}, {"seq", 1}}}},
    {Kind::WorkerSession,
     {"hot_session", "hot_emit", Cat::Hot, 'X', true,
      {{"eip", 0}, {"seq", 1}, {"worker", 3}, {"ok", 2}}}},
    {Kind::HotCommit, boxOnly("hot_commit")},
    {Kind::HotDiscard, boxOnly("hot_discard")},
    {Kind::SmcInvalidate,
     {"smc_invalidate", "smc_invalidate", Cat::Cache, 'i', false,
      {{"addr", 0}, {"len", 1}, {"blocks_dropped", 2}}}},
    {Kind::CacheFlush,
     {"cache_flush", "cache_flush", Cat::Cache, 'X', false,
      {{"generation", 0}}}},
    {Kind::PersistAdopt,
     {"persist_adopt", "persist_adopt", Cat::Hot, 'i', false,
      {{"block", 3}, {"eip", 0}}}},
    {Kind::PersistReject, boxOnly("persist_reject")},
    {Kind::SentinelShift, boxOnly("sentinel_shift")},
    {Kind::Divergence,
     {"divergence", "divergence", Cat::Fault, 'i', false,
      {{"eip", 0}, {"end_eip", 1}}}},
    {Kind::FaultInject,
     {"fault_inject", "fault_fire", Cat::Fault, 'i', false, {{"site", 0}}}},
    {Kind::WorkerFault,
     {"fault_inject", "fault_fire", Cat::Fault, 'i', false,
      {{"site", 0}, {"seq", 1}}}},
    {Kind::GuestFault, boxOnly("guest_fault")},
    {Kind::HeatRegister,
     {nullptr, "heat_register", Cat::Hot, 'i', false,
      {{"block", 1}, {"eip", 0}, {"registrations", 2}}}},
    {Kind::HotPublish,
     {nullptr, "hot_commit", Cat::Hot, 'X', false,
      {{"eip", 0}, {"block", 1}, {"seq", 2}, {"worker", 3}}}},
    {Kind::AdoptionStall,
     {nullptr, "adoption_stall", Cat::Hot, 'i', false,
      {{"seq", 0}, {"cycles", 1}}}},
    {Kind::ExitUnlink,
     {nullptr, "exit_unlink", Cat::Cache, 'i', false,
      {{"block", 1}, {"eip", 0}}}},
    {Kind::ExitRelink,
     {nullptr, "exit_relink", Cat::Cache, 'i', false,
      {{"from_block", 1}, {"target_eip", 0}}}},
    {Kind::Quarantine,
     {nullptr, "quarantine", Cat::Cache, 'i', false,
      {{"block", 1}, {"eip", 0}}}},
    {Kind::GuardRecover,
     {nullptr, "guard_recover", Cat::Fault, 'X', false,
      {{"block", 0}, {"kind", 1}}}},
    {Kind::Provenance, {}},
};

constexpr bool
rowsInKindOrder()
{
    for (size_t i = 0; i < std::size(rows); ++i)
        if (rows[i].kind != static_cast<Kind>(i))
            return false;
    return std::size(rows) == static_cast<size_t>(Kind::NumKinds);
}
static_assert(rowsInKindOrder(), "kind table out of step with Kind");

/** The Chrome sort key's last component: the first exported arg. */
int64_t
firstArg(const Event &e)
{
    const Arg &a = kindInfo(e.kind).args[0];
    return a.key ? e.word(a.word) : 0;
}

} // namespace

const char *
catName(Cat cat)
{
    switch (cat) {
      case Cat::Translate:
        return "translate";
      case Cat::Hot:
        return "hot";
      case Cat::Cache:
        return "cache";
      case Cat::Fault:
        return "fault";
      case Cat::Runtime:
        return "runtime";
    }
    return "?";
}

const KindInfo &
kindInfo(Kind kind)
{
    return rows[static_cast<size_t>(kind)].info;
}

void
Tracer::record(const Event &e)
{
    const KindInfo &info = kindInfo(e.kind);
    if (!(view_ == View::Chrome ? info.chrome : info.box))
        return;
    Event kept = e;
    if (view_ == View::BlackBox && info.box_at_end && e.lane != 0)
        kept.ts += kept.dur; // exact: cycle values are integer doubles
    events_.push(kept);
}

std::vector<Event>
Tracer::snapshot() const
{
    std::vector<Event> out(events_.begin(), events_.end());
    if (view_ == View::Chrome)
        std::stable_sort(out.begin(), out.end(),
                         [](const Event &x, const Event &y) {
                             if (x.ts != y.ts)
                                 return x.ts < y.ts;
                             if (x.lane != y.lane)
                                 return x.lane < y.lane;
                             int c = std::strcmp(kindInfo(x.kind).chrome,
                                                 kindInfo(y.kind).chrome);
                             if (c != 0)
                                 return c < 0;
                             return firstArg(x) < firstArg(y);
                         });
    else
        std::stable_sort(out.begin(), out.end(),
                         [](const Event &x, const Event &y) {
                             if (x.ts != y.ts)
                                 return x.ts < y.ts;
                             if (x.lane != y.lane)
                                 return x.lane < y.lane;
                             if (x.kind != y.kind)
                                 return x.kind < y.kind;
                             return x.a < y.a;
                         });
    return out;
}

std::string
Tracer::chromeJson() const
{
    json::Writer w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const Event &e : snapshot()) {
        const KindInfo &k = kindInfo(e.kind);
        if (!k.chrome)
            continue; // a black-box-only kind
        w.beginObject();
        w.kv("name", k.chrome);
        w.kv("cat", catName(k.cat));
        w.key("ph");
        w.str(std::string(1, k.ph));
        w.kv("ts", e.ts);
        if (k.ph == 'X')
            w.kv("dur", e.dur);
        w.kv("pid", 1);
        w.kv("tid", static_cast<uint64_t>(e.lane));
        if (k.ph == 'i')
            w.kv("s", "t"); // instant scope: thread
        w.key("args");
        w.beginObject();
        for (const Arg &a : k.args)
            if (a.key)
                w.kv(a.key, e.word(a.word));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.kv("displayTimeUnit", "ms");
    w.kv("droppedEvents", dropped());
    w.endObject();
    return w.str();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::string text = chromeJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    size_t n = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = (n == text.size()) && std::fclose(f) == 0;
    if (n != text.size())
        std::fclose(f);
    return ok;
}

bool
validateChromeTrace(const std::string &json_text, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    json::Value root;
    std::string perr;
    if (!json::Parser::parse(json_text, &root, &perr))
        return fail("malformed JSON: " + perr);
    if (!root.isObject())
        return fail("top level is not an object");
    const json::Value *events = root.find("traceEvents");
    if (!events || !events->isArray())
        return fail("missing traceEvents array");

    std::map<uint64_t, double> last_ts; // per-tid monotonicity
    size_t idx = 0;
    for (const json::Value &e : events->arr) {
        if (!e.isObject())
            return fail(strfmt("event %zu is not an object", idx));
        const json::Value *name = e.find("name");
        const json::Value *ph = e.find("ph");
        const json::Value *ts = e.find("ts");
        const json::Value *tid = e.find("tid");
        if (!name || !name->isString() || name->str.empty())
            return fail(strfmt("event %zu lacks a name", idx));
        if (!ph || !ph->isString() ||
            (ph->str != "X" && ph->str != "i"))
            return fail(strfmt("event %zu has bad ph", idx));
        if (!ts || !ts->isNumber() || !tid || !tid->isNumber())
            return fail(strfmt("event %zu lacks ts/tid", idx));
        if (ph->str == "X") {
            const json::Value *dur = e.find("dur");
            if (!dur || !dur->isNumber() || dur->num < 0)
                return fail(strfmt("span %zu has bad dur", idx));
        }
        uint64_t t = static_cast<uint64_t>(tid->num);
        auto it = last_ts.find(t);
        if (it != last_ts.end() && ts->num < it->second)
            return fail(strfmt("ts not monotonic on tid %llu at "
                               "event %zu",
                               static_cast<unsigned long long>(t), idx));
        last_ts[t] = ts->num;
        ++idx;
    }
    return true;
}

} // namespace el::trace
