#include "support/faultinject.hh"

#include <cstdio>
#include <cstdlib>

namespace el
{

namespace
{

FaultInjector *g_active_injector = nullptr;

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::BtosAlloc:
        return "btos_alloc";
      case FaultSite::ColdXlateAbort:
        return "cold_xlate_abort";
      case FaultSite::HotXlateAbort:
        return "hot_xlate_abort";
      case FaultSite::CacheExhaust:
        return "cache_exhaust";
      case FaultSite::GuestFaultStorm:
        return "guest_fault_storm";
      case FaultSite::Miscompile:
        return "miscompile";
      case FaultSite::StoreCorrupt:
        return "store_corrupt";
      case FaultSite::AcctSkew:
        return "acct_skew";
      case FaultSite::CrashJournalAppend:
        return "crash_journal_append";
      case FaultSite::CrashStoreRename:
        return "crash_store_rename";
      case FaultSite::CrashCheckpoint:
        return "crash_checkpoint";
      case FaultSite::CrashAdopt:
        return "crash_adopt";
      default:
        return "?";
    }
}

void
crashNow(FaultSite site)
{
    // One diagnostic on stderr (unbuffered enough to usually survive),
    // then die without unwinding: no destructors, no atexit, no stdio
    // flush — exactly the state a kill -9 leaves behind.
    std::fprintf(stderr, "el: crash point '%s' fired: _exit(%d)\n",
                 faultSiteName(site), crash_exit_code);
    std::_Exit(crash_exit_code);
}

bool
FaultInjector::shouldFire(FaultSite site)
{
    ++total_consults_;
    uint16_t p = cfg_.prob[static_cast<std::size_t>(site)];
    if (!p)
        return false;
    if (cfg_.max_fires && total_fires_ >= cfg_.max_fires)
        return false;
    if (rng_.range(1024) >= p)
        return false;
    ++fires_[static_cast<std::size_t>(site)];
    ++total_fires_;
    if (listener_)
        listener_(site);
    return true;
}

bool
FaultInjector::recordStreamFire(FaultSite site)
{
    if (cfg_.max_fires && total_fires_ >= cfg_.max_fires)
        return false;
    ++fires_[static_cast<std::size_t>(site)];
    ++total_fires_;
    return true;
}

FaultInjector *
activeFaultInjector()
{
    return g_active_injector;
}

FaultInjectorScope::FaultInjectorScope(const FaultConfig &cfg)
{
    if (!cfg.enabled())
        return;
    owned_.injector = FaultInjector(cfg);
    owned_.active = true;
    previous_ = g_active_injector;
    g_active_injector = &owned_.injector;
    installed_ = true;
}

FaultInjectorScope::~FaultInjectorScope()
{
    if (installed_)
        g_active_injector = previous_;
}

FaultSuppressScope::FaultSuppressScope()
    : suspended_(g_active_injector)
{
    g_active_injector = nullptr;
}

FaultSuppressScope::~FaultSuppressScope()
{
    g_active_injector = suspended_;
}

} // namespace el
