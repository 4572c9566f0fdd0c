/**
 * @file
 * Simulated OS personalities (the BTLib side of the BTOS API).
 *
 * Both personalities provide the same services — memory allocation,
 * console output, heap growth, virtual time, idle, "kernel work" (native
 * time spent in the OS and drivers, which Figure 7 shows dominating
 * Sysmark-class workloads), and exception delivery — but through
 * different trap vectors, argument conventions and service numbers, so
 * one BTGeneric binary must genuinely abstract over them.
 */

#ifndef EL_BTLIB_OS_SIM_HH
#define EL_BTLIB_OS_SIM_HH

#include <cstdint>
#include <functional>
#include <string>

#include "btlib/abi.hh"
#include "btlib/btos.hh"
#include "guest/image.hh"
#include "mem/memory.hh"

namespace el::btlib
{

/** Statistics a personality accumulates about OS interactions. */
struct OsStats
{
    uint64_t syscalls = 0;
    double native_cycles = 0;
    double idle_cycles = 0;
};

/**
 * The guest-visible OS state a checkpoint must carry: everything a
 * syscall result can depend on. Virtual time matters because the Time
 * service returns it — a resumed run must see the clock where the
 * interrupted run left it or its console output diverges. Cycle
 * accounting (native/idle) is deliberately absent: it is reporting,
 * not guest-visible, and a resumed run accounts only its own work.
 */
struct OsSnapshot
{
    std::string console;
    uint64_t alloc_next = 0;
    uint32_t brk = 0;
    uint32_t handler_eip = 0;
    double virtual_time_us = 0;
    uint64_t syscalls = 0;
};

/** Shared machinery of both simulated personalities. */
class SimOsBase
{
  public:
    explicit SimOsBase(mem::Memory &memory);
    virtual ~SimOsBase() = default;

    /** The BTOS vtable to hand to BTGeneric. */
    BtOsVtable vtable();

    /** Console output captured from guest writes. */
    const std::string &consoleOutput() const { return console_; }

    const OsStats &stats() const { return stats_; }

    /** Hook the runtime installs so native/idle cycles reach Figure 7. */
    void
    setCycleSink(std::function<void(ipf::Bucket, double)> sink)
    {
        sink_ = std::move(sink);
    }

    virtual const char *name() const = 0;

    /** Trap vector this OS uses for system calls. */
    virtual uint8_t intVector() const = 0;

    /** Capture the guest-visible OS state for a checkpoint. */
    OsSnapshot
    snapshot() const
    {
        return {console_, alloc_next_, brk_, handler_eip_,
                virtual_time_us_, stats_.syscalls};
    }

    /** Restore a snapshot into this (freshly constructed) personality. */
    void
    restore(const OsSnapshot &s)
    {
        console_ = s.console;
        alloc_next_ = s.alloc_next;
        brk_ = s.brk;
        handler_eip_ = s.handler_eip;
        virtual_time_us_ = s.virtual_time_us;
        stats_.syscalls = s.syscalls;
    }

  protected:
    /** Decode (service, args) from the guest state per the OS ABI. */
    virtual Service decodeService(const ia32::State &state,
                                  uint32_t args[3]) = 0;

    /** Write the service result back per the OS ABI. */
    virtual void writeResult(ia32::State &state, uint32_t result) = 0;

    SyscallResult dispatch(ia32::State &state, uint8_t vector);
    ExceptionDisposition deliver(ia32::State &state,
                                 const ia32::Fault &fault);
    uint64_t allocPages(uint64_t bytes);
    void charge(ipf::Bucket bucket, double cycles);

    mem::Memory &mem_;
    std::string console_;
    OsStats stats_;
    std::function<void(ipf::Bucket, double)> sink_;
    uint64_t alloc_next_ = 0xe8000000; //!< OS-chosen mmap region.
    uint32_t brk_ = guest::Layout::heap_base;
    uint32_t handler_eip_ = 0;         //!< Registered exception handler.
    double virtual_time_us_ = 0;

  private:
    friend struct VtableThunks;
};

/** The Linux personality: INT 0x80, register-passed arguments. */
class SimLinux final : public SimOsBase
{
  public:
    using SimOsBase::SimOsBase;
    const char *name() const override { return "sim-linux"; }
    uint8_t intVector() const override { return linux_abi::int_vector; }

  protected:
    Service decodeService(const ia32::State &state,
                          uint32_t args[3]) override;
    void writeResult(ia32::State &state, uint32_t result) override;
};

/** The Windows personality: INT 0x2e, argument block in memory. */
class SimWindows final : public SimOsBase
{
  public:
    using SimOsBase::SimOsBase;
    const char *name() const override { return "sim-windows"; }
    uint8_t intVector() const override { return windows_abi::int_vector; }

  protected:
    Service decodeService(const ia32::State &state,
                          uint32_t args[3]) override;
    void writeResult(ia32::State &state, uint32_t result) override;
};

} // namespace el::btlib

#endif // EL_BTLIB_OS_SIM_HH
