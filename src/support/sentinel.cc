#include "support/sentinel.hh"

namespace el::sentinel
{

const char *
healthName(Health h)
{
    switch (h) {
      case Health::Healthy:
        return "healthy";
      case Health::Quarantined:
        return "quarantined";
      case Health::Retranslated:
        return "retranslated";
    }
    return "?";
}

Sentinel::Sentinel(Config cfg)
    : cfg_(cfg),
      divergence_log_(cfg.divergence_log_capacity
                          ? cfg.divergence_log_capacity
                          : 1,
                      RingPolicy::DropNewest)
{
    if (cfg_.replay_budget == 0)
        cfg_.replay_budget = 1;
    if (cfg_.quarantine_cooldown == 0)
        cfg_.quarantine_cooldown = 1;
}

bool
Sentinel::shouldCheck()
{
    uint64_t n = regions_seen_++;
    if (cfg_.selfcheck_rate == 0)
        return false;
    return n % cfg_.selfcheck_rate == 0;
}

void
Sentinel::noteDivergence(uint32_t entry_eip)
{
    ++total_divergences_;
    HealthRecord &r = row(entry_eip);
    ++r.divergences;
    Health before = r.state;
    bool was_pinned = r.pinned;
    r.state = Health::Quarantined;
    if (r.retries >= cfg_.retranslate_limit) {
        r.pinned = true;
        r.cooldown_left = 0;
    } else {
        r.cooldown_left = cfg_.quarantine_cooldown;
    }
    notifyShift(entry_eip, before, was_pinned, r);
}

void
Sentinel::logDivergence(const DivergenceInfo &info)
{
    divergence_log_.push(info);
}

bool
Sentinel::isQuarantined(uint32_t eip) const
{
    const HealthRecord *r = record(eip);
    return r && (r->pinned || r->state == Health::Quarantined);
}

bool
Sentinel::interpretGate(uint32_t eip) const
{
    const HealthRecord *r = record(eip);
    if (!r)
        return false;
    if (r->pinned)
        return true;
    return r->state == Health::Quarantined && r->cooldown_left > 0;
}

void
Sentinel::tickCooldown(uint32_t eip)
{
    auto it = ledger_.find(eip);
    if (it == ledger_.end())
        return;
    HealthRecord &r = it->second;
    if (r.pinned || r.state != Health::Quarantined)
        return;
    if (r.cooldown_left > 0)
        --r.cooldown_left;
    if (r.cooldown_left == 0) {
        // Served its quarantine: allow one fresh cold translation.
        ++r.retries;
        r.state = Health::Retranslated;
        notifyShift(eip, Health::Quarantined, r.pinned, r);
    }
}

const HealthRecord *
Sentinel::record(uint32_t eip) const
{
    auto it = ledger_.find(eip);
    return it == ledger_.end() ? nullptr : &it->second;
}

} // namespace el::sentinel
