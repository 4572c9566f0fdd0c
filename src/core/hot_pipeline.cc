#include "core/hot_pipeline.hh"

#include <algorithm>

#include "core/translator.hh"

namespace el::core
{

HotPipeline::HotPipeline(unsigned workers, const Options &options,
                         FaultInjector *faults)
    : options_(options), faults_(faults), worker_avail_(workers, 0.0)
{
}

const HotArtifact &
HotPipeline::enqueue(const HotSessionInput &input, int32_t cold_block_id,
                     uint64_t generation, double now,
                     double session_cost)
{
    HotArtifact &art = pending_.emplace_back();
    art.seq = next_seq_++;
    art.cold_block_id = cold_block_id;
    art.generation = generation;
    art.start_cycles = now;
    if (!worker_avail_.empty()) {
        // Plan the session onto the least-loaded simulated worker: it
        // starts when both the candidate and a worker are available.
        auto it =
            std::min_element(worker_avail_.begin(), worker_avail_.end());
        art.start_cycles = std::max(now, *it);
        art.lane = 1 + static_cast<uint32_t>(it - worker_avail_.begin());
        *it = art.start_cycles + session_cost;
    }
    art.ready_cycles = art.start_cycles + session_cost;
    // The injection stream is keyed by the sequence number, never the
    // lane, so chaos runs replay across worker counts.
    FaultStream stream(faults_, art.seq);
    Translator::runHotSession(input, options_, &stream, &art);
    return art;
}

std::vector<HotArtifact>
HotPipeline::drain(double now)
{
    std::vector<HotArtifact> out;
    while (!pending_.empty() && pending_.front().ready_cycles <= now) {
        out.push_back(std::move(pending_.front()));
        pending_.pop_front();
    }
    return out;
}

} // namespace el::core
