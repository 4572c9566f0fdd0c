/**
 * @file
 * Lightweight statistics: named counters and their ratios, plus a
 * fixed-width table formatter used by the benchmark harnesses to print
 * paper-shaped result rows.
 */

#ifndef EL_SUPPORT_STATS_HH
#define EL_SUPPORT_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace el
{

/** A named group of integer counters with formatted reporting. */
class StatGroup
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void
    add(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Set counter @p name to @p value. */
    void set(const std::string &name, uint64_t value)
    {
        counters_[name] = value;
    }

    /** Read counter @p name (0 if absent). */
    uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Ratio of two counters as a double; 0 when the denominator is 0. */
    double
    ratio(const std::string &num, const std::string &den) const
    {
        uint64_t d = get(den);
        return d ? static_cast<double>(get(num)) / static_cast<double>(d)
                 : 0.0;
    }

    /**
     * Fold another group's counters into this one (summing). Used to
     * merge per-session/per-worker groups into the shared group on the
     * owning thread, so workers never touch shared counters.
     */
    void
    merge(const StatGroup &other)
    {
        for (const auto &[name, value] : other.counters_)
            counters_[name] += value;
    }

    /** Reset all counters to zero. */
    void clear() { counters_.clear(); }

    /** All counters, sorted by name. */
    const std::map<std::string, uint64_t> &all() const { return counters_; }

    /** Render as "name = value" lines. */
    std::string dump() const;

  private:
    std::map<std::string, uint64_t> counters_;
};

/** Fixed-width text table used by the bench binaries. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Render the table with a header rule, column-aligned. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Geometric mean of a vector of positive values (0 if empty). */
double geomean(const std::vector<double> &values);

} // namespace el

#endif // EL_SUPPORT_STATS_HH
