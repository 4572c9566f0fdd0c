/**
 * @file
 * `el_prof`: renders the execution-profile JSON written by
 * `el_run --profile-out`, the metrics stream written by
 * `el_run --metrics-out`, and the provenance in a run report.
 *
 * Views:
 *   (default)      flat summary — hottest blocks, hottest conditional
 *                  edges, per-site indirect-target distributions, and
 *                  the profiler's health counters
 *   --annotate[=N] the top-N blocks with their IA-32 disassembly and
 *                  the joined per-translation IPF cycle costs
 *   --csv[=file]   an el-metrics NDJSON stream's gauges as CSV, one
 *                  row per snapshot (stdout by default)
 *   --check        schema validation (used by CI on the uploaded
 *                  artifact); exits 0 when the file is a well-formed
 *                  profile, 2 otherwise
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace
{

using el::json::Value;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: el_prof [options] <profile.json>\n"
        "  --top=<n>        rows per table (default 10)\n"
        "  --annotate[=<n>] annotated listing of the <n> hottest\n"
        "                   blocks (default 5)\n"
        "  --csv[=<file>]   read a metrics stream (el_run\n"
        "                   --metrics-out) instead of a profile and\n"
        "                   write its gauges as CSV, one row per\n"
        "                   snapshot\n"
        "  --check          validate the schema and exit (0 = ok)\n"
        "  --provenance[=<eip>|all]\n"
        "                   read a run report (el_run --report-json,\n"
        "                   or the postmortem.json of an abnormal\n"
        "                   run) instead of a profile and print\n"
        "                   artifact lifecycle timelines: the final\n"
        "                   hot set by default, one entry point when\n"
        "                   <eip> (hex ok) is given, everything with\n"
        "                   'all'\n"
        "  --log-level=<l>  err|warn|info|debug (EL_LOG env var is\n"
        "                   the fallback)\n");
}

/** The rows of array member @p key, sorted descending by @p by. */
std::vector<const Value *>
sortedRows(const Value &root, const char *key, const char *by)
{
    std::vector<const Value *> rows;
    const Value *arr = root.find(key);
    if (arr && arr->isArray())
        for (const Value &v : arr->arr)
            rows.push_back(&v);
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Value *a, const Value *b) {
                         return a->numberOr(by, 0) > b->numberOr(by, 0);
                     });
    return rows;
}

double
condWeight(const Value &site)
{
    return site.numberOr("taken", 0) + site.numberOr("fall", 0);
}

/** Total cycles across a block's translations (0 when not joined). */
double
xlateCycles(const Value &block)
{
    const Value *xl = block.find("xlate");
    double cycles = 0;
    if (xl && xl->isArray())
        for (const Value &t : xl->arr)
            cycles += t.numberOr("cycles", 0);
    return cycles;
}

void
printBlocks(const Value &root, size_t top)
{
    std::printf("hottest blocks (by executions):\n");
    std::printf("  %-10s %10s %6s %-9s %12s\n", "entry", "execs",
                "insns", "term", "ipf-cycles");
    std::vector<const Value *> rows = sortedRows(root, "blocks", "execs");
    for (size_t i = 0; i < rows.size() && i < top; ++i) {
        const Value &b = *rows[i];
        std::printf("  %08llx   %10.0f %6.0f %-9s %12.0f\n",
                    (unsigned long long)b.numberOr("entry", 0),
                    b.numberOr("execs", 0), b.numberOr("insns", 0),
                    b.strOr("term", "?").c_str(), xlateCycles(b));
    }
    std::printf("\n");
}

void
printEdges(const Value &root, size_t top)
{
    std::printf("hottest conditional edges:\n");
    std::printf("  %-10s %10s %10s %7s  %s\n", "site", "taken", "fall",
                "taken%", "targets");
    std::vector<const Value *> rows;
    const Value *arr = root.find("cond_sites");
    if (arr && arr->isArray())
        for (const Value &v : arr->arr)
            rows.push_back(&v);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Value *a, const Value *b) {
                         return condWeight(*a) > condWeight(*b);
                     });
    for (size_t i = 0; i < rows.size() && i < top; ++i) {
        const Value &s = *rows[i];
        double taken = s.numberOr("taken", 0);
        double total = condWeight(s);
        std::printf("  %08llx   %10.0f %10.0f %6.1f%%  "
                    "%08llx / %08llx\n",
                    (unsigned long long)s.numberOr("ip", 0), taken,
                    s.numberOr("fall", 0),
                    total > 0 ? 100.0 * taken / total : 0.0,
                    (unsigned long long)s.numberOr("taken_eip", 0),
                    (unsigned long long)s.numberOr("fall_eip", 0));
    }
    std::printf("\n");
}

void
printIndirects(const Value &root, size_t top)
{
    std::printf("indirect sites (by executions):\n");
    std::vector<const Value *> rows =
        sortedRows(root, "indirect_sites", "execs");
    for (size_t i = 0; i < rows.size() && i < top; ++i) {
        const Value &s = *rows[i];
        double execs = s.numberOr("execs", 0);
        double hits = s.numberOr("hits", 0);
        std::printf("  %08llx: execs=%.0f hit-rate=%.1f%% "
                    "evictions=%.0f\n",
                    (unsigned long long)s.numberOr("ip", 0), execs,
                    execs > 0 ? 100.0 * hits / execs : 0.0,
                    s.numberOr("evictions", 0));
        const Value *targets = s.find("targets");
        if (!targets || !targets->isArray())
            continue;
        std::vector<const Value *> ts;
        for (const Value &t : targets->arr)
            ts.push_back(&t);
        std::stable_sort(ts.begin(), ts.end(),
                         [](const Value *a, const Value *b) {
                             return a->numberOr("count", 0) >
                                    b->numberOr("count", 0);
                         });
        for (const Value *t : ts) {
            double count = t->numberOr("count", 0);
            std::printf("    -> %08llx %10.0f (%.1f%%)\n",
                        (unsigned long long)t->numberOr("eip", 0),
                        count, execs > 0 ? 100.0 * count / execs : 0.0);
        }
    }
    std::printf("\n");
}

void
printCounters(const Value &root)
{
    const Value *counters = root.find("counters");
    if (!counters || !counters->isObject())
        return;
    std::printf("profiler health:\n");
    for (const auto &[name, v] : counters->obj)
        if (v.isNumber())
            std::printf("  %-24s %12.0f\n", name.c_str(), v.num);
    std::printf("\n");
}

void
printAnnotated(const Value &root, size_t top)
{
    std::vector<const Value *> rows = sortedRows(root, "blocks", "execs");
    double total_cycles = root.numberOr("cycles", 0);
    for (size_t i = 0; i < rows.size() && i < top; ++i) {
        const Value &b = *rows[i];
        double execs = b.numberOr("execs", 0);
        std::printf("block %08llx: execs=%.0f insns=%.0f term=%s\n",
                    (unsigned long long)b.numberOr("entry", 0), execs,
                    b.numberOr("insns", 0),
                    b.strOr("term", "?").c_str());
        const Value *xl = b.find("xlate");
        if (xl && xl->isArray()) {
            for (const Value &t : xl->arr) {
                double cycles = t.numberOr("cycles", 0);
                // Warm-started translations are marked: "hot+store"
                // means the trace was adopted from a persistent
                // artifact store, not translated in this run.
                bool loaded = t.strOr("origin", "local") == "loaded";
                std::printf("  [%s%s #%.0f] %12.0f cycles "
                            "(%4.1f%% of run), %.0f ipf insns",
                            t.strOr("kind", "?").c_str(),
                            loaded ? "+store" : "",
                            t.numberOr("id", 0), cycles,
                            total_cycles > 0
                                ? 100.0 * cycles / total_cycles
                                : 0.0,
                            t.numberOr("ipf_insns", 0));
                if (execs > 0)
                    std::printf(", %.2f cycles/exec", cycles / execs);
                std::printf("\n");
            }
        }
        const Value *disasm = b.find("disasm");
        if (disasm && disasm->isArray())
            for (const Value &line : disasm->arr)
                if (line.isString())
                    std::printf("    %s\n", line.str.c_str());
        std::printf("\n");
    }
}

/**
 * Render the gauges of an el-metrics NDJSON stream as CSV: a "cycle"
 * column, then one column per gauge name seen in any snapshot, one row
 * per snapshot. Returns the process exit code.
 */
int
dumpCsv(const std::string &text, const std::string &in_path,
        const std::string &out_path)
{
    std::vector<Value> snaps;
    std::vector<std::string> cols;
    std::istringstream lines(text);
    std::string line;
    for (size_t n = 1; std::getline(lines, line); ++n) {
        if (line.empty())
            continue;
        Value v;
        std::string error;
        if (!el::json::Parser::parse(line, &v, &error) ||
            v.strOr("kind", "") != "el-metrics" || !v.find("gauges")) {
            std::fprintf(stderr,
                         "el_prof: %s:%zu: not an el-metrics snapshot "
                         "(write one with el_run --metrics-out)\n",
                         in_path.c_str(), n);
            return 2;
        }
        for (const auto &[name, g] : v.find("gauges")->obj)
            if (std::find(cols.begin(), cols.end(), name) == cols.end())
                cols.push_back(name);
        snaps.push_back(std::move(v));
    }

    std::ostringstream out;
    out << "cycle";
    for (const std::string &c : cols)
        out << "," << c;
    out << "\n";
    for (const Value &v : snaps) {
        out << el::json::number(v.numberOr("cycle", 0));
        const Value *gauges = v.find("gauges");
        for (const std::string &c : cols) {
            out << ",";
            if (const Value *g = gauges->find(c))
                out << el::json::number(g->num);
        }
        out << "\n";
    }

    if (out_path.empty()) {
        std::fputs(out.str().c_str(), stdout);
        return 0;
    }
    std::ofstream f(out_path, std::ios::binary);
    f << out.str();
    if (!f) {
        std::fprintf(stderr, "el_prof: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    return 0;
}

/**
 * Render provenance timelines from a run report. @p filter is empty
 * (final hot set only), "all", or one entry point (hex or decimal).
 * Returns the process exit code.
 */
int
printProvenance(const Value &root, const std::string &path,
                const std::string &filter)
{
    if (root.strOr("kind", "") != "el-report" ||
        root.numberOr("version", 0) != 2) {
        std::fprintf(stderr,
                     "el_prof: %s is not an el-report v2 (write one "
                     "with el_run --report-json)\n",
                     path.c_str());
        return 2;
    }
    const Value *prov = root.find("provenance");
    if (!prov || !prov->isArray()) {
        std::fprintf(stderr,
                     "el_prof: %s has no provenance ledger (was the "
                     "run made with --no-flight?)\n", path.c_str());
        return 2;
    }

    bool all = filter == "all";
    bool has_eip = !filter.empty() && !all;
    unsigned long long want_eip = 0;
    if (has_eip && !el::harness::parseNumber(filter.c_str(), &want_eip)) {
        std::fprintf(stderr, "el_prof: bad --provenance value '%s'\n",
                     filter.c_str());
        return 1;
    }

    const Value *exit_obj = root.find("exit");
    std::printf("report: %s  workload=%s  exit=%s(%.0f)\n\n",
                path.c_str(), root.strOr("workload", "?").c_str(),
                exit_obj ? exit_obj->strOr("class", "?").c_str() : "?",
                exit_obj ? exit_obj->numberOr("code", 0) : 0.0);

    size_t shown = 0;
    for (const Value &entry : prov->arr) {
        unsigned long long eip =
            (unsigned long long)entry.numberOr("eip", 0);
        const Value *hv = entry.find("in_hot_set");
        bool hot = hv && hv->kind == Value::Kind::Bool && hv->b;
        if (has_eip ? eip != want_eip : (!all && !hot))
            continue;
        ++shown;
        std::printf("%08llx%s:\n", eip,
                    hot ? " (in final hot set)" : "");
        const Value *timeline = entry.find("timeline");
        if (timeline && timeline->isArray())
            for (const Value &e : timeline->arr)
                std::printf("  %12.0f  %-12s %-18s block=%.0f "
                            "gen=%.0f\n",
                            e.numberOr("ts", 0),
                            e.strOr("state", "?").c_str(),
                            e.strOr("cause", "?").c_str(),
                            e.numberOr("block", -1),
                            e.numberOr("generation", 0));
        if (entry.numberOr("dropped", 0) > 0)
            std::printf("  (… %.0f older events dropped)\n",
                        entry.numberOr("dropped", 0));
        std::printf("\n");
    }
    if (shown == 0) {
        if (has_eip)
            std::printf("%08llx: no provenance recorded\n", want_eip);
        else
            std::printf("no hot translations were live at exit "
                        "(use --provenance=all for every entry "
                        "point)\n");
    }
    return 0;
}

/** Is @p root a well-formed el-profile document? */
bool
checkSchema(const Value &root, std::string *error)
{
    auto fail = [&](const std::string &why) {
        *error = why;
        return false;
    };
    if (!root.isObject())
        return fail("top level is not an object");
    if (root.strOr("kind", "") != "el-profile")
        return fail("kind is not \"el-profile\"");
    if (root.numberOr("version", 0) != 1)
        return fail("unsupported version");
    if (!root.find("workload") || !root.find("workload")->isString())
        return fail("missing workload");
    if (!root.find("cycles") || !root.find("cycles")->isNumber())
        return fail("missing cycles");
    const Value *counters = root.find("counters");
    if (!counters || !counters->isObject())
        return fail("missing counters object");
    for (const char *arr : {"blocks", "cond_sites", "indirect_sites"}) {
        const Value *v = root.find(arr);
        if (!v || !v->isArray())
            return fail(std::string("missing array: ") + arr);
    }
    for (const Value &b : root.find("blocks")->arr) {
        if (!b.find("entry") || !b.find("execs") || !b.find("disasm"))
            return fail("block row missing entry/execs/disasm");
        if (!b.find("disasm")->isArray())
            return fail("block disasm is not an array");
    }
    for (const Value &s : root.find("indirect_sites")->arr) {
        const Value *targets = s.find("targets");
        if (!s.find("ip") || !s.find("execs") || !targets ||
            !targets->isArray())
            return fail("indirect row missing ip/execs/targets");
        double counted = 0;
        for (const Value &t : targets->arr)
            counted += t.numberOr("count", 0);
        // Space-saving top-K counts can over-approximate (an inserted
        // target inherits the evicted minimum), but with no evictions
        // they total exactly the site's executions.
        if (s.numberOr("evictions", 0) == 0 &&
            counted != s.numberOr("execs", 0))
            return fail("indirect target counts do not sum to execs");
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path, csv_path, prov_filter;
    size_t top = 10, annotate = 0;
    bool csv = false, check = false, provenance = false;

    el::initLogLevelFromEnv(); // Explicit --log-level overrides.

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool ok = true; // false: a value that does not parse
        if (arg == "--help") {
            usage();
            return 0;
        } else if (arg.compare(0, 6, "--top=") == 0 && arg.size() > 6) {
            ok = el::harness::parseNumber(arg.c_str() + 6, &top);
        } else if (arg == "--annotate") {
            annotate = 5;
        } else if (arg.compare(0, 11, "--annotate=") == 0 &&
                   arg.size() > 11) {
            ok = el::harness::parseNumber(arg.c_str() + 11, &annotate);
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg.compare(0, 6, "--csv=") == 0 && arg.size() > 6) {
            csv = true;
            csv_path = arg.c_str() + 6;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--provenance") {
            provenance = true;
        } else if (arg.compare(0, 13, "--provenance=") == 0 &&
                   arg.size() > 13) {
            provenance = true;
            prov_filter = arg.c_str() + 13;
        } else if (arg.compare(0, 12, "--log-level=") == 0 &&
                   arg.size() > 12) {
            int level = el::parseLogLevel(arg.c_str() + 12);
            if (level < 0) {
                std::fprintf(stderr,
                             "el_prof: bad --log-level '%s' (want "
                             "err|warn|info|debug)\n",
                             arg.c_str() + 12);
                return 1;
            }
            el::log_level = level;
        } else if (arg.compare(0, 2, "--") == 0) {
            std::fprintf(stderr, "el_prof: unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return 1;
        } else if (path.empty()) {
            path = arg;
        } else {
            usage();
            return 1;
        }
        if (!ok) {
            std::fprintf(stderr, "el_prof: bad value in '%s'\n",
                         arg.c_str());
            return 1;
        }
    }
    if (path.empty()) {
        usage();
        return 1;
    }

    std::ifstream f(path, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "el_prof: cannot read %s\n", path.c_str());
        return 2;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    if (csv)
        return dumpCsv(ss.str(), path, csv_path);

    Value root;
    std::string error;
    if (!el::json::Parser::parse(ss.str(), &root, &error)) {
        std::fprintf(stderr, "el_prof: %s: parse error: %s\n",
                     path.c_str(), error.c_str());
        return 2;
    }
    if (provenance)
        return printProvenance(root, path, prov_filter);
    if (!checkSchema(root, &error)) {
        std::fprintf(stderr, "el_prof: %s: bad profile: %s\n",
                     path.c_str(), error.c_str());
        return 2;
    }
    if (check) {
        std::printf("%s: valid el-profile (%s, %.0f events)\n",
                    path.c_str(), root.strOr("workload", "?").c_str(),
                    root.find("counters")->numberOr("prof.events", 0));
        return 0;
    }

    std::printf("profile: %s  workload=%s  cycles=%.0f\n\n",
                path.c_str(), root.strOr("workload", "?").c_str(),
                root.numberOr("cycles", 0));
    if (annotate > 0) {
        printAnnotated(root, annotate);
        return 0;
    }
    printBlocks(root, top);
    printEdges(root, top);
    printIndirects(root, top);
    printCounters(root);
    return 0;
}
