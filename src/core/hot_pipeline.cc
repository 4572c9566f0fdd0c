#include "core/hot_pipeline.hh"

#include <algorithm>

#include "core/translator.hh"

namespace el::core
{

HotPipeline::HotPipeline(unsigned threads, const Options &options,
                         FaultInjector *faults)
    : options_(options), faults_(faults),
      worker_avail_(std::max(1u, threads), 0.0)
{
    workers_.reserve(worker_avail_.size());
    for (size_t w = 0; w < worker_avail_.size(); ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

HotPipeline::~HotPipeline()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        closing_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
HotPipeline::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [&] { return closing_ || !queue_.empty(); });
        if (closing_)
            return; // nobody will adopt what is still queued
        HotCandidate cand = std::move(queue_.front());
        queue_.pop_front();
        lk.unlock();

        HotArtifact art;
        art.seq = cand.seq;
        art.entry_eip = cand.input.entry_eip;
        art.cold_block_id = cand.cold_block_id;
        art.generation = cand.generation;
        art.start_cycles = cand.start_cycles;
        art.ready_cycles = cand.ready_cycles;
        art.worker_slot = cand.worker_slot;
        // The injection stream is keyed by the candidate's sequence
        // number, never the worker, so chaos runs replay across thread
        // counts.
        FaultStream stream(faults_, cand.seq);
        Translator::runHotSession(cand.input, options_, &stream, &art);

        lk.lock();
        landed_.emplace(art.seq, std::move(art));
        // The runtime's thread may be waiting for exactly this seq.
        cv_.notify_all();
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
    pending_ready_.push_back(candidate.ready_cycles);
    uint64_t seq = candidate.seq;
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(candidate));
    }
    // Only workers can be waiting: the one thread that waits for
    // artifacts is this one.
    cv_.notify_one();
    return seq;
}

void
HotPipeline::quiesce(const std::function<void(const HotArtifact &)> &visit)
{
    std::unique_lock<std::mutex> lk(mu_);
    // Every not-yet-drained candidate is either still queued, with a
    // worker, or landed; wait until all of them have landed.
    cv_.wait(lk, [&] { return landed_.size() == pending_ready_.size(); });
    for (const auto &[seq, art] : landed_)
        visit(art);
}

std::vector<HotArtifact>
HotPipeline::drain(double now)
{
    std::vector<HotArtifact> out;
    // Adopt strictly in enqueue order, and only once guest simulated
    // time has reached the candidate's planned completion. If the plan
    // says it is done but the real worker has not landed it yet, wait
    // (wall-clock only — invisible to the simulation).
    while (!pending_ready_.empty() && pending_ready_.front() <= now) {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return landed_.count(next_adopt_seq_) != 0; });
        out.push_back(std::move(landed_.extract(next_adopt_seq_).mapped()));
        pending_ready_.pop_front();
        ++next_adopt_seq_;
    }
    return out;
}

} // namespace el::core
