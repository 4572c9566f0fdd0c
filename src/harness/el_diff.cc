/**
 * @file
 * `el_diff`: differential run attribution.
 *
 * Feed it two run reports of the same guest image — cold vs warm, a
 * thread sweep, before/after an optimization — and it explains the
 * cycle delta: which Figure-6 phases and which specific translation
 * blocks account for it, with the unattributed residual reported
 * rather than hidden. Writes the human table to stdout and, with
 * --json-out, the machine-readable el-diff v1 document CI archives
 * next to bench results.
 *
 * Exit codes: 0 attribution produced, 1 usage, 2 unreadable input,
 * 3 incompatible inputs (different document version, image
 * fingerprint, or workload; --force downgrades this to a warning).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "support/attrib.hh"
#include "support/buildinfo.hh"

namespace
{

using namespace el;

constexpr int exit_ok = 0;
constexpr int exit_usage = 1;
constexpr int exit_io = 2;
constexpr int exit_incompatible = 3;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: el_diff [options] <base-report.json> "
        "<current-report.json>\n"
        "  --json-out=<file>   write the el-diff v1 JSON document\n"
        "  --noise=<frac>      pool blocks whose |delta| is below this\n"
        "                      fraction of the total delta into one\n"
        "                      below-noise row (default 0.01)\n"
        "  --force             diff despite mismatched fingerprints or\n"
        "                      workloads (prints the mismatch as a\n"
        "                      warning instead of refusing)\n"
        "\n"
        "Inputs are el-report documents from `el_run --report-json`.\n"
        "Reports from the same build stamp carry an image+options\n"
        "fingerprint; el_diff refuses to compare different guests.\n");
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::ostringstream ss;
    ss << f.rdbuf();
    *out = ss.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out;
    attrib::Options opts;
    bool force = false;
    std::string paths[2];
    int npaths = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix);
            if (arg.compare(0, n, prefix) != 0 || arg.size() == n)
                return nullptr;
            return arg.c_str() + n;
        };
        if (const char *v = value("--json-out=")) {
            json_out = v;
        } else if (const char *v = value("--noise=")) {
            char *end = nullptr;
            opts.noise_frac = std::strtod(v, &end);
            if (!end || *end || opts.noise_frac < 0 ||
                opts.noise_frac >= 1) {
                std::fprintf(stderr,
                             "el_diff: bad --noise value '%s' (want a "
                             "fraction in [0, 1))\n", v);
                return exit_usage;
            }
        } else if (arg == "--force") {
            force = true;
        } else if (arg == "--help") {
            usage();
            return exit_ok;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "el_diff: unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return exit_usage;
        } else if (npaths < 2) {
            paths[npaths++] = arg;
        } else {
            std::fprintf(stderr, "el_diff: too many inputs\n");
            usage();
            return exit_usage;
        }
    }
    if (npaths != 2) {
        usage();
        return exit_usage;
    }

    attrib::RunView views[2];
    for (int i = 0; i < 2; ++i) {
        std::string text, err;
        if (!readFile(paths[i], &text)) {
            std::fprintf(stderr, "el_diff: cannot read %s\n",
                         paths[i].c_str());
            return exit_io;
        }
        if (!attrib::parseReport(text, paths[i], &views[i], &err)) {
            std::fprintf(stderr, "el_diff: %s\n", err.c_str());
            return exit_io;
        }
    }

    std::string why;
    if (!attrib::compatible(views[0], views[1], &why)) {
        if (!force) {
            std::fprintf(stderr, "el_diff: %s\n", why.c_str());
            return exit_incompatible;
        }
        std::fprintf(stderr,
                     "el_diff: warning: %s (continuing under "
                     "--force)\n", why.c_str());
    }

    attrib::Diff d = attrib::diffRuns(views[0], views[1], opts);
    std::fputs(attrib::diffTable(d, views[0], views[1]).c_str(),
               stdout);

    if (!json_out.empty()) {
        buildinfo::ProducerStamp stamp = buildinfo::ProducerStamp::make(
            "el_diff", views[0].fingerprint);
        std::ofstream f(json_out, std::ios::binary);
        if (!f ||
            !(f << attrib::diffJson(d, views[0], views[1], stamp))) {
            std::fprintf(stderr, "el_diff: cannot write %s\n",
                         json_out.c_str());
            return exit_io;
        }
        std::printf("\ndiff: %s\n", json_out.c_str());
    }
    return exit_ok;
}
