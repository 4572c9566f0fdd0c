#include "support/attrib.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/strfmt.hh"

namespace el::attrib
{

namespace
{

// The Figure-6 category names, in report order. The parser accepts
// only these so a typo'd report fails loudly instead of diffing as
// zero.
const char *phase_names[] = {"cold_code", "hot_code",    "btgeneric",
                             "fault_handling", "native", "idle"};

bool
failParse(std::string *err, const std::string &path,
          const std::string &why)
{
    if (err)
        *err = strfmt("%s: %s", path.c_str(), why.c_str());
    return false;
}

} // namespace

bool
parseReport(const std::string &text, const std::string &path,
            RunView *out, std::string *err)
{
    json::Value doc;
    std::string jerr;
    if (!json::Parser::parse(text, &doc, &jerr))
        return failParse(err, path, "malformed JSON: " + jerr);
    if (!doc.isObject())
        return failParse(err, path, "not a JSON object");

    std::string kind = doc.strOr("kind", "");
    if (kind != "el-report")
        return failParse(err, path,
                         kind.empty()
                             ? "not an el-report (no kind; "
                               "re-run el_run from this build?)"
                             : "not an el-report (kind \"" + kind +
                                   "\")");

    out->path = path;
    out->version = static_cast<int>(doc.numberOr("version", 0));
    out->workload = doc.strOr("workload", "");
    out->cycles = doc.numberOr("cycles", 0);

    if (const json::Value *p = doc.find("producer")) {
        out->tool = p->strOr("tool", "");
        out->build = p->strOr("build", "");
        out->fingerprint = p->strOr("fingerprint", "");
    }

    const json::Value *attr = doc.find("attribution");
    if (!attr || !attr->isObject())
        return failParse(err, path, "no attribution object");
    out->phases.clear();
    for (const char *name : phase_names) {
        const json::Value *v = attr->find(name);
        if (!v || !v->isNumber())
            return failParse(err, path,
                             strfmt("attribution.%s missing", name));
        out->phases.emplace_back(name, v->num);
    }
    out->attribution_total = attr->numberOr("total", 0);

    out->blocks.clear();
    out->has_blocks = false;
    if (const json::Value *blocks = doc.find("blocks")) {
        if (!blocks->isArray())
            return failParse(err, path, "blocks is not an array");
        out->has_blocks = true;
        // Several translations can share an entry EIP (misalignment
        // variants, re-translations after a flush); the differ wants
        // the canonical guest location, so pre-merge here.
        std::map<std::pair<uint32_t, std::string>,
                 std::pair<double, double>>
            merged;
        for (const json::Value &row : blocks->arr) {
            if (!row.isObject())
                return failParse(err, path, "non-object block row");
            uint32_t eip =
                static_cast<uint32_t>(row.numberOr("eip", 0));
            std::string bkind = row.strOr("kind", "?");
            auto &cell = merged[{eip, bkind}];
            cell.first += row.numberOr("cycles", 0);
            cell.second += row.numberOr("insns", 0);
        }
        for (const auto &[key, cost] : merged) {
            RunView::BlockRow r;
            r.eip = key.first;
            r.kind = key.second;
            r.cycles = cost.first;
            r.insns = cost.second;
            out->blocks.push_back(std::move(r));
        }
    }
    return true;
}

bool
compatible(const RunView &base, const RunView &cur, std::string *why)
{
    auto refuse = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (base.version != cur.version)
        return refuse(strfmt("document versions differ: %s is v%d, "
                             "%s is v%d",
                             base.path.c_str(), base.version,
                             cur.path.c_str(), cur.version));
    if (!base.fingerprint.empty() && !cur.fingerprint.empty() &&
        base.fingerprint != cur.fingerprint)
        return refuse(strfmt(
            "image fingerprints differ: %s ran %s, %s ran %s — these "
            "are different guests (use --force to diff anyway)",
            base.path.c_str(), base.fingerprint.c_str(),
            cur.path.c_str(), cur.fingerprint.c_str()));
    if (base.workload != cur.workload)
        return refuse(strfmt(
            "workloads differ: \"%s\" vs \"%s\" (use --force to diff "
            "anyway)",
            base.workload.c_str(), cur.workload.c_str()));
    return true;
}

Diff
diffRuns(const RunView &base, const RunView &cur, const Options &opts)
{
    Diff d;
    d.base_cycles = base.cycles;
    d.cur_cycles = cur.cycles;
    d.delta = cur.cycles - base.cycles;
    double abs_delta = std::fabs(d.delta);

    // ----- phases ---------------------------------------------------
    double phase_sum = 0;
    for (size_t i = 0; i < base.phases.size(); ++i) {
        PhaseDelta pd;
        pd.phase = base.phases[i].first;
        pd.base = base.phases[i].second;
        // Same parser, same fixed name list: positions match.
        pd.cur = i < cur.phases.size() ? cur.phases[i].second : 0;
        pd.delta = pd.cur - pd.base;
        pd.share = abs_delta > 0 ? pd.delta / d.delta : 0;
        phase_sum += pd.delta;
        d.phases.push_back(std::move(pd));
    }
    std::stable_sort(d.phases.begin(), d.phases.end(),
                     [](const PhaseDelta &a, const PhaseDelta &b) {
                         return std::fabs(a.delta) > std::fabs(b.delta);
                     });
    d.phase_residual = d.delta - phase_sum;
    d.attributed_fraction =
        abs_delta > 0
            ? 1.0 - std::fabs(d.phase_residual) / abs_delta
            : 1.0;

    // ----- blocks ---------------------------------------------------
    d.blocks_available = base.has_blocks && cur.has_blocks;
    if (!d.blocks_available)
        return d;

    d.noise_threshold = abs_delta * opts.noise_frac;
    std::map<std::pair<uint32_t, std::string>, BlockDelta> rows;
    for (const RunView::BlockRow &r : base.blocks) {
        BlockDelta &bd = rows[{r.eip, r.kind}];
        bd.eip = r.eip;
        bd.kind = r.kind;
        bd.base = r.cycles;
    }
    for (const RunView::BlockRow &r : cur.blocks) {
        BlockDelta &bd = rows[{r.eip, r.kind}];
        bd.eip = r.eip;
        bd.kind = r.kind;
        bd.cur = r.cycles;
    }
    double block_sum = 0;
    for (auto &[key, bd] : rows) {
        bd.delta = bd.cur - bd.base;
        block_sum += bd.delta;
        if (bd.delta == 0)
            continue;
        if (std::fabs(bd.delta) < d.noise_threshold) {
            d.below_noise += bd.delta;
            ++d.below_noise_rows;
            continue;
        }
        d.blocks.push_back(bd);
    }
    std::stable_sort(d.blocks.begin(), d.blocks.end(),
                     [](const BlockDelta &a, const BlockDelta &b) {
                         return std::fabs(a.delta) > std::fabs(b.delta);
                     });
    d.block_residual = d.delta - block_sum;
    return d;
}

std::string
diffJson(const Diff &d, const RunView &base, const RunView &cur,
         const buildinfo::ProducerStamp &producer)
{
    json::Writer w;
    w.beginObject();
    w.kv("kind", "el-diff");
    w.kv("version", 1);
    buildinfo::writeStamp(w, producer);
    w.kv("workload", base.workload);
    if (!base.fingerprint.empty())
        w.kv("fingerprint", base.fingerprint);

    auto side = [&](const char *key, const RunView &r) {
        w.key(key);
        w.beginObject();
        w.kv("path", r.path);
        if (!r.build.empty())
            w.kv("build", r.build);
        w.kv("cycles", r.cycles);
        w.endObject();
    };
    side("base", base);
    side("current", cur);

    w.key("delta");
    w.beginObject();
    w.kv("cycles", d.delta);
    w.kv("attributed_fraction", d.attributed_fraction);
    w.kv("phase_residual", d.phase_residual);
    w.endObject();

    w.key("phases");
    w.beginArray();
    for (const PhaseDelta &p : d.phases) {
        w.beginObject();
        w.kv("phase", p.phase);
        w.kv("base", p.base);
        w.kv("current", p.cur);
        w.kv("delta", p.delta);
        w.kv("share", p.share);
        w.endObject();
    }
    w.endArray();

    w.key("blocks");
    w.beginObject();
    w.kv("available", d.blocks_available);
    if (d.blocks_available) {
        w.kv("noise_threshold", d.noise_threshold);
        w.key("rows");
        w.beginArray();
        for (const BlockDelta &b : d.blocks) {
            w.beginObject();
            w.kv("eip", strfmt("0x%08x", b.eip));
            w.kv("kind", b.kind);
            w.kv("base", b.base);
            w.kv("current", b.cur);
            w.kv("delta", b.delta);
            w.endObject();
        }
        w.endArray();
        w.kv("below_noise", d.below_noise);
        w.kv("below_noise_rows", d.below_noise_rows);
        w.kv("residual", d.block_residual);
    }
    w.endObject();

    w.endObject();
    return w.str() + "\n";
}

std::string
diffTable(const Diff &d, const RunView &base, const RunView &cur)
{
    std::string out;
    out += strfmt("workload: %s\n", base.workload.c_str());
    out += strfmt("  base:    %14.0f cycles  (%s)\n", d.base_cycles,
                  base.path.c_str());
    out += strfmt("  current: %14.0f cycles  (%s)\n", d.cur_cycles,
                  cur.path.c_str());
    double pct = d.base_cycles != 0
                     ? 100.0 * d.delta / d.base_cycles
                     : 0.0;
    out += strfmt("  delta:   %+14.0f cycles  (%+.2f%%)\n", d.delta,
                  pct);
    out += strfmt("\nphase attribution (%.1f%% of delta attributed, "
                  "residual %+.0f):\n",
                  100.0 * d.attributed_fraction, d.phase_residual);
    out += strfmt("  %-16s %14s %14s %14s %8s\n", "phase", "base",
                  "current", "delta", "share");
    for (const PhaseDelta &p : d.phases)
        out += strfmt("  %-16s %14.0f %14.0f %+14.0f %7.1f%%\n",
                      p.phase.c_str(), p.base, p.cur, p.delta,
                      100.0 * p.share);

    if (!d.blocks_available) {
        out += "\nper-block attribution: unavailable (run el_run with "
               "--report-json on both sides;\nblock rows need "
               "Options::collect_block_cycles)\n";
        return out;
    }
    out += strfmt("\nper-block attribution (noise threshold %.0f "
                  "cycles):\n",
                  d.noise_threshold);
    out += strfmt("  %-12s %-8s %14s %14s %14s\n", "eip", "kind",
                  "base", "current", "delta");
    for (const BlockDelta &b : d.blocks) {
        std::string eip = b.kind == "runtime"
                              ? std::string("-")
                              : strfmt("0x%08x", b.eip);
        out += strfmt("  %-12s %-8s %14.0f %14.0f %+14.0f\n",
                      eip.c_str(), b.kind.c_str(), b.base, b.cur,
                      b.delta);
    }
    if (d.below_noise_rows)
        out += strfmt("  %-12s %-8s %29s %+14.0f   (%llu block(s))\n",
                      "(below", "noise)", "", d.below_noise,
                      static_cast<unsigned long long>(
                          d.below_noise_rows));
    out += strfmt("  %-12s %-8s %29s %+14.0f   (synthetic: xlate "
                  "overhead, native, idle)\n",
                  "(residual)", "", "", d.block_residual);
    return out;
}

} // namespace el::attrib
