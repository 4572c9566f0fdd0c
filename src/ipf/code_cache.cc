#include "ipf/code_cache.hh"

#include "support/faultinject.hh"
#include "support/logging.hh"

namespace el::ipf
{

void
CodeCache::patchToBranch(int64_t idx, int64_t target)
{
    el_assert(idx >= 0 && idx < nextIndex(), "patch out of range");
    Instr &i = code_[idx];
    el_assert(i.op == IpfOp::Exit, "patching a non-exit instruction");
    ExitReason old_reason = i.exit_reason;
    el_assert(old_reason == ExitReason::LinkMiss,
              "patching a non-link exit (%u)",
              static_cast<unsigned>(old_reason));
    i.op = IpfOp::Br;
    i.target = target;
    // Keep the reason/payload as inert metadata: the machine ignores
    // them on a Br, but the execution profiler identifies a patched
    // conditional-exit probe (and its guest target) by them.
}

void
CodeCache::invalidateEntry(int64_t idx, ExitReason reason, int64_t payload)
{
    el_assert(idx >= 0 && idx < nextIndex(), "invalidate out of range");
    Instr &i = code_[idx];
    i.op = IpfOp::Exit;
    i.qp = 0;
    i.exit_reason = reason;
    i.exit_payload = payload;
    i.target = -1;
    i.stop = true;
}

bool
CodeCache::exhausted(size_t headroom)
{
    if (capacity_ != 0 && code_.size() + headroom > capacity_)
        return true;
    if (faultInjected(FaultSite::CacheExhaust))
        return true;
    return false;
}

void
CodeCache::flushAll()
{
    std::lock_guard<std::mutex> lk(*publish_mu_);
    code_.clear();
    ++generation_;
}

int64_t
CodeCache::publish(const CodeCache &staging,
                   uint64_t expected_generation, int32_t final_block_id)
{
    std::lock_guard<std::mutex> lk(*publish_mu_);
    if (generation_ != expected_generation)
        return -1;
    int64_t base = static_cast<int64_t>(code_.size());
    code_.reserve(code_.size() + staging.code_.size());
    for (Instr i : staging.code_) {
        // Branch/chk targets inside a staged block are staging-relative
        // (the staging cache starts at index 0); rebase them. Exit
        // stubs carry target == -1 and are linked later.
        if (i.target >= 0)
            i.target += base;
        i.meta.block_id = final_block_id;
        code_.push_back(i);
    }
    if (code_.size() > high_water_)
        high_water_ = code_.size();
    return base;
}

bool
CodeCache::patchToBranchChecked(int64_t idx, int64_t target,
                                uint64_t expected_generation)
{
    std::lock_guard<std::mutex> lk(*publish_mu_);
    if (generation_ != expected_generation)
        return false;
    patchToBranch(idx, target);
    return true;
}

} // namespace el::ipf
