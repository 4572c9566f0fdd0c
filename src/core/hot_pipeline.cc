#include "core/hot_pipeline.hh"

#include <algorithm>

namespace el::core
{

HotPipeline::HotPipeline(unsigned threads, SessionFn session)
    : session_(std::move(session)),
      worker_avail_(std::max(1u, threads), 0.0)
{
    pool_.start(std::max(1u, threads), [this](unsigned) { workerLoop(); });
}

HotPipeline::~HotPipeline()
{
    queue_.close();
    pool_.join();
}

void
HotPipeline::workerLoop()
{
    HotCandidate cand;
    while (queue_.pop(&cand)) {
        HotArtifact art;
        art.seq = cand.seq;
        art.cold_block_id = cand.cold_block_id;
        art.generation = cand.generation;
        art.start_cycles = cand.start_cycles;
        art.ready_cycles = cand.ready_cycles;
        art.worker_slot = cand.worker_slot;
        session_(cand, &art);
        {
            std::lock_guard<std::mutex> lk(results_mu_);
            results_.push_back(std::move(art));
        }
        results_cv_.notify_all();
    }
}

uint64_t
HotPipeline::enqueue(HotCandidate candidate, double now,
                     double session_cost)
{
    candidate.seq = next_seq_++;
    // Plan the session onto the least-loaded simulated worker: it
    // starts when both the candidate and a worker are available. The
    // plan depends only on enqueue order and simulated time, never on
    // real thread scheduling, so adoption is replayable.
    auto it = std::min_element(worker_avail_.begin(), worker_avail_.end());
    double start = std::max(now, *it);
    candidate.start_cycles = start;
    candidate.ready_cycles = start + session_cost;
    candidate.worker_slot =
        static_cast<unsigned>(it - worker_avail_.begin());
    *it = candidate.ready_cycles;
    pending_ready_[candidate.seq] = candidate.ready_cycles;
    uint64_t seq = candidate.seq;
    queue_.push(std::move(candidate));
    return seq;
}

void
HotPipeline::quiesce()
{
    if (pending_ready_.empty())
        return;
    std::unique_lock<std::mutex> lk(results_mu_);
    // Every not-yet-drained candidate is either still with a worker or
    // landed in results_; wait for the two sets to coincide.
    results_cv_.wait(lk, [&] {
        return results_.size() == pending_ready_.size();
    });
}

std::vector<HotArtifact>
HotPipeline::drain(double now)
{
    std::vector<HotArtifact> out;
    if (pending_ready_.empty())
        return out;
    std::unique_lock<std::mutex> lk(results_mu_);

    // Adopt strictly in enqueue order, and only once guest simulated
    // time has reached the candidate's planned completion. If the plan
    // says it is done but the real worker has not landed it yet, wait
    // (wall-clock only — invisible to the simulation).
    for (;;) {
        auto it = pending_ready_.find(next_adopt_seq_);
        if (it == pending_ready_.end() || it->second > now)
            break;
        auto landed = results_.end();
        results_cv_.wait(lk, [&] {
            landed = std::find_if(results_.begin(), results_.end(),
                                  [&](const HotArtifact &a) {
                                      return a.seq == next_adopt_seq_;
                                  });
            return landed != results_.end();
        });
        out.push_back(std::move(*landed));
        results_.erase(landed);
        pending_ready_.erase(it);
        ++next_adopt_seq_;
    }
    return out;
}

} // namespace el::core
