#include "support/metrics.hh"

#include "support/json.hh"

namespace el::metrics
{

bool
Registry::openOutput(const std::string &path)
{
    closeOutput();
    out_ = std::fopen(path.c_str(), "w");
    return out_ != nullptr;
}

void
Registry::closeOutput()
{
    if (out_) {
        std::fclose(out_);
        out_ = nullptr;
    }
}

void
Registry::emit(double cycle)
{
    ++snapshots_;
    if (!out_)
        return;
    std::string line = snapshotJson(cycle);
    std::fwrite(line.data(), 1, line.size(), out_);
    std::fputc('\n', out_);
    // Flush per line: an abnormal exit must still leave whole,
    // parseable snapshots behind.
    std::fflush(out_);
}

std::string
Registry::snapshotJson(double cycle) const
{
    json::Writer w;
    w.beginObject();
    w.kv("kind", "el-metrics");
    w.kv("version", 3);
    if (have_producer_)
        buildinfo::writeStamp(w, producer_);
    w.kv("cycle", cycle);
    w.key("gauges");
    w.beginObject();
    for (const Gauge &g : gauges_)
        w.kv(g.name.c_str(), g.read ? g.read() : 0.0);
    w.endObject();
    w.key("counters");
    w.beginObject();
    if (counters_) {
        StatGroup counters = counters_();
        for (const auto &[name, value] : counters.all())
            w.kv(name, value);
    }
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace el::metrics
