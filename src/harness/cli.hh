/**
 * @file
 * Command-line helpers shared by `el_run`, `el_aot` and `el_prof`: the
 * strict numeric flag parser, the workload list and the `--fault=`
 * spec parser.
 */

#ifndef EL_HARNESS_CLI_HH
#define EL_HARNESS_CLI_HH

#include <charconv>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hh"
#include "guest/workloads.hh"
#include "support/faultinject.hh"

namespace el::harness
{

/**
 * Parse @p text as an unsigned @p T: decimal, or hex after "0x". Signs,
 * spaces, trailing characters and values that overflow @p T are
 * rejected, so "--threads=-1" is a usage error instead of four billion
 * workers.
 */
template <typename T>
bool
parseNumber(const char *text, T *out)
{
    std::string_view s(text);
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
        s.remove_prefix(2);
        base = 16;
    }
    T v{};
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size())
        return false;
    *out = v;
    return true;
}

/** Parse a `--threads=` worker count: a number no larger than
 *  core::max_translation_threads. */
inline bool
parseThreads(const char *text, uint32_t *out)
{
    uint32_t n = 0;
    if (!parseNumber(text, &n) || n > core::max_translation_threads)
        return false;
    *out = n;
    return true;
}

/** Every workload personality: the paper suites plus the adversarial
 *  guests. */
inline std::vector<guest::Workload>
allWorkloads()
{
    std::vector<guest::Workload> all = guest::specIntSuite();
    for (auto &w : guest::specFpSuite())
        all.push_back(std::move(w));
    for (auto &w : guest::sysmarkSuite())
        all.push_back(std::move(w));
    for (auto &w : guest::adversarialSuite())
        all.push_back(std::move(w));
    return all;
}

/** Look up a fault site by its printable name. */
inline bool
parseFaultSite(const std::string &name, FaultSite *out)
{
    for (size_t s = 0; s < num_fault_sites; ++s) {
        FaultSite site = static_cast<FaultSite>(s);
        if (name == faultSiteName(site)) {
            *out = site;
            return true;
        }
    }
    return false;
}

/** Apply a `--fault=<site>:<p>` spec (p in parts per 1024, at most
 *  1024) to @p cfg. */
inline bool
parseFaultSpec(const char *spec, FaultConfig *cfg)
{
    const char *colon = std::strrchr(spec, ':');
    FaultSite site;
    uint16_t prob = 0;
    if (!colon || !parseFaultSite(std::string(spec, colon), &site) ||
        !parseNumber(colon + 1, &prob) || prob > 1024)
        return false;
    cfg->site(site, prob);
    return true;
}

} // namespace el::harness

#endif // EL_HARNESS_CLI_HH
