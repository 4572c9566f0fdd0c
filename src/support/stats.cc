#include "support/stats.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/strfmt.hh"

namespace el
{

std::string
StatGroup::dump() const
{
    std::string out;
    for (const auto &[name, value] : counters_)
        out += strfmt("%-40s = %llu\n", name.c_str(),
                      static_cast<unsigned long long>(value));
    return out;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    el_assert(cells.size() == headers_.size(),
              "row width %zu != header width %zu", cells.size(),
              headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto fmt_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (size_t c = 0; c < row.size(); ++c) {
            line += strfmt("%-*s", static_cast<int>(width[c] + 2),
                           row[c].c_str());
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = fmt_row(headers_);
    size_t rule_len = 0;
    for (size_t c = 0; c < width.size(); ++c)
        rule_len += width[c] + 2;
    out += std::string(rule_len, '-') + "\n";
    for (const auto &row : rows_)
        out += fmt_row(row);
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace el
