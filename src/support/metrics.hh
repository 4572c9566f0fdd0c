/**
 * @file
 * Telemetry snapshotter: a registry of named gauges, counter groups and
 * histograms, periodically exported as newline-delimited JSON.
 *
 * The runtime's health is already counted — in per-subsystem
 * `StatGroup`s, in the profiler, in the persist store — but only as
 * an end-of-run report. The `Registry` unifies those sources behind
 * names and emits one self-contained JSON object per sampling period
 * of the *simulated* clock ("el-metrics" v1, one object per line). It
 * is the run's only periodic sampler; `el_prof --csv` renders a stream
 * as a table.
 *
 * Sources are registered as non-owned pointers/closures and read lazily
 * at emit time, so registration costs nothing on the execution path.
 * Emission is driven from the dispatch loop (`maybeEmit`) off simulated
 * cycles and charges zero simulated cycles itself: cycle results are
 * bit-identical with snapshotting on or off.
 */

#ifndef EL_SUPPORT_METRICS_HH
#define EL_SUPPORT_METRICS_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "support/buildinfo.hh"
#include "support/stats.hh"

namespace el::metrics
{

/** The registry. One per run; see file comment. */
class Registry
{
  public:
    Registry() = default;
    ~Registry() { closeOutput(); }

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Register a point-in-time value read at each emit. */
    void
    gauge(const std::string &name, std::function<double()> read)
    {
        gauges_.push_back({name, std::move(read)});
    }

    /** Register a counter group; exported as "<prefix>.<counter>". */
    void
    counters(const std::string &prefix, const StatGroup *group)
    {
        counter_groups_.push_back({prefix, group});
    }

    /** Register a histogram; exported as count/mean/p50/p90/p99. */
    void
    histogram(const std::string &name, const Histogram *h)
    {
        histograms_.push_back({name, h});
    }

    /** Simulated cycles between snapshots (0 disables maybeEmit). */
    void setPeriod(uint64_t cycles) { period_ = cycles; }

    /** Stamp every snapshot line with a build/schema provenance
     *  header. Optional: embedders without one emit unstamped lines. */
    void
    setProducer(const buildinfo::ProducerStamp &stamp)
    {
        producer_ = stamp;
        have_producer_ = true;
    }

    /** Open @p path for NDJSON output; false on I/O failure. */
    bool openOutput(const std::string &path);
    void closeOutput();

    /**
     * Emit one snapshot line if the simulated clock crossed the next
     * period boundary since the last emit. Call sites pass the current
     * cycle count at dispatch boundaries; never charges cycles.
     */
    void
    maybeEmit(double cycle)
    {
        if (!period_ || !out_ || cycle < next_emit_)
            return;
        emit(cycle);
        while (next_emit_ <= cycle)
            next_emit_ += static_cast<double>(period_);
    }

    /** Emit one snapshot line unconditionally (if output is open). */
    void emit(double cycle);

    /** One "el-metrics" v1 object (no trailing newline). */
    std::string snapshotJson(double cycle) const;

    /** Snapshot lines emitted so far. */
    uint64_t snapshots() const { return snapshots_; }

  private:
    struct Gauge
    {
        std::string name;
        std::function<double()> read;
    };
    struct CounterGroup
    {
        std::string prefix;
        const StatGroup *group;
    };
    struct Hist
    {
        std::string name;
        const Histogram *h;
    };

    std::vector<Gauge> gauges_;
    std::vector<CounterGroup> counter_groups_;
    std::vector<Hist> histograms_;
    buildinfo::ProducerStamp producer_;
    bool have_producer_ = false;
    uint64_t period_ = 0;
    double next_emit_ = 0;
    uint64_t snapshots_ = 0;
    std::FILE *out_ = nullptr;
};

} // namespace el::metrics

#endif // EL_SUPPORT_METRICS_HH
