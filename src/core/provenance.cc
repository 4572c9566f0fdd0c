#include "core/provenance.hh"

namespace el::core
{

const char *
provStateName(ProvState s)
{
    switch (s) {
      case ProvState::Decoded:
        return "decoded";
      case ProvState::Cold:
        return "cold";
      case ProvState::HotQueued:
        return "hot_queued";
      case ProvState::Session:
        return "session";
      case ProvState::Published:
        return "published";
      case ProvState::Discarded:
        return "discarded";
      case ProvState::Persisted:
        return "persisted";
      case ProvState::Adopted:
        return "adopted";
      case ProvState::Quarantined:
        return "quarantined";
      case ProvState::Retranslated:
        return "retranslated";
      case ProvState::Pinned:
        return "pinned";
    }
    return "?";
}

const char *
provCauseName(ProvCause c)
{
    switch (c) {
      case ProvCause::None:
        return "none";
      case ProvCause::Heat:
        return "heat";
      case ProvCause::SessionOk:
        return "session_ok";
      case ProvCause::SessionAbort:
        return "session_abort";
      case ProvCause::StaleGeneration:
        return "stale_generation";
      case ProvCause::SmcWrite:
        return "smc_write";
      case ProvCause::CacheFlush:
        return "cache_flush";
      case ProvCause::CachePressure:
        return "cache_pressure";
      case ProvCause::QuarantineBlocked:
        return "quarantine_blocked";
      case ProvCause::SentinelDivergence:
        return "sentinel_divergence";
      case ProvCause::StoreRecord:
        return "store_record";
      case ProvCause::StoreHit:
        return "store_hit";
      case ProvCause::SmcMismatch:
        return "smc_mismatch";
      case ProvCause::QuarantinePurge:
        return "quarantine_purge";
      case ProvCause::Cooldown:
        return "cooldown";
      case ProvCause::Misalign:
        return "misalign";
    }
    return "?";
}

} // namespace el::core
