#include "btlib/os_sim.hh"

#include "ia32/regs.hh"
#include "support/faultinject.hh"
#include "support/logging.hh"

namespace el::btlib
{

namespace linux_abi
{

Service
serviceFor(uint32_t nr)
{
    switch (nr) {
      case nr_exit:
        return Service::Exit;
      case nr_write:
        return Service::Write;
      case nr_brk:
        return Service::Brk;
      case nr_time:
        return Service::Time;
      case nr_yield:
        return Service::Yield;
      case nr_kernel_work:
        return Service::KernelWork;
      case nr_set_handler:
        return Service::SetHandler;
      default:
        return Service::Unknown;
    }
}

} // namespace linux_abi

namespace windows_abi
{

Service
serviceFor(uint32_t nr)
{
    switch (nr) {
      case nr_terminate:
        return Service::Exit;
      case nr_write_console:
        return Service::Write;
      case nr_allocate_vm:
        return Service::Brk;
      case nr_query_time:
        return Service::Time;
      case nr_yield:
        return Service::Yield;
      case nr_kernel_work:
        return Service::KernelWork;
      case nr_set_handler:
        return Service::SetHandler;
      default:
        return Service::Unknown;
    }
}

} // namespace windows_abi

SimOsBase::SimOsBase(mem::Memory &memory) : mem_(memory)
{
}

/** Static thunks bridging the C vtable back into the C++ personality. */
struct VtableThunks
{
    static uint64_t
    allocPages(void *ctx, uint64_t bytes)
    {
        return static_cast<SimOsBase *>(ctx)->allocPages(bytes);
    }

    static SyscallResult
    systemService(void *ctx, ia32::State *state, uint8_t vector)
    {
        return static_cast<SimOsBase *>(ctx)->dispatch(*state, vector);
    }

    static ExceptionDisposition
    deliverException(void *ctx, ia32::State *state,
                     const ia32::Fault *fault)
    {
        return static_cast<SimOsBase *>(ctx)->deliver(*state, *fault);
    }

    static void
    chargeCycles(void *ctx, uint8_t bucket, double cycles)
    {
        static_cast<SimOsBase *>(ctx)->charge(
            static_cast<ipf::Bucket>(bucket), cycles);
    }

    static const char *
    osName(void *ctx)
    {
        return static_cast<SimOsBase *>(ctx)->name();
    }
};

BtOsVtable
SimOsBase::vtable()
{
    BtOsVtable vt;
    vt.major = btos_major;
    vt.minor = btos_minor;
    vt.ctx = this;
    vt.alloc_pages = &VtableThunks::allocPages;
    vt.system_service = &VtableThunks::systemService;
    vt.deliver_exception = &VtableThunks::deliverException;
    vt.charge_cycles = &VtableThunks::chargeCycles;
    vt.os_name = &VtableThunks::osName;
    return vt;
}

uint64_t
SimOsBase::allocPages(uint64_t bytes)
{
    if (faultInjected(FaultSite::BtosAlloc))
        return 0; // Transient allocation failure (chaos testing).
    uint64_t base = alloc_next_;
    uint64_t mapped = (bytes + mem::Memory::page_size - 1) &
                      ~(mem::Memory::page_size - 1);
    mem_.map(base, mapped, mem::PermRW);
    alloc_next_ += mapped + mem::Memory::page_size; // guard page gap
    return base;
}

void
SimOsBase::charge(ipf::Bucket bucket, double cycles)
{
    if (bucket == ipf::Bucket::Native)
        stats_.native_cycles += cycles;
    else if (bucket == ipf::Bucket::Idle)
        stats_.idle_cycles += cycles;
    if (sink_)
        sink_(bucket, cycles);
}

SyscallResult
SimOsBase::dispatch(ia32::State &state, uint8_t vector)
{
    ++stats_.syscalls;
    SyscallResult res;
    if (vector != intVector()) {
        // Unknown software interrupt: treat as an invalid-opcode-class
        // event; the caller routes it as a fault. Model as exit here.
        res.exit = true;
        res.exit_code = 128 + vector;
        return res;
    }
    uint32_t args[3] = {0, 0, 0};
    Service svc = decodeService(state, args);

    // Every trip into the kernel costs some native time.
    charge(ipf::Bucket::Native, 400);
    virtual_time_us_ += 0.4;

    uint32_t result = 0;
    switch (svc) {
      case Service::Exit:
        res.exit = true;
        res.exit_code = static_cast<int32_t>(args[0]);
        return res;
      case Service::Write: {
        uint32_t addr = args[0];
        uint32_t len = args[1] > 65536 ? 65536 : args[1];
        std::string chunk;
        chunk.reserve(len);
        for (uint32_t k = 0; k < len; ++k) {
            uint64_t b = 0;
            if (!mem_.read(addr + k, 1, &b).ok())
                break;
            chunk.push_back(static_cast<char>(b));
        }
        console_ += chunk;
        result = static_cast<uint32_t>(chunk.size());
        charge(ipf::Bucket::Native, 30.0 * chunk.size());
        break;
      }
      case Service::Brk: {
        if (args[0] == 0) {
            result = brk_;
        } else {
            uint32_t new_brk = brk_ + args[0];
            mem_.map(brk_, new_brk - brk_, mem::PermRW);
            result = brk_;
            brk_ = new_brk;
        }
        break;
      }
      case Service::Time:
        result = static_cast<uint32_t>(virtual_time_us_);
        break;
      case Service::Yield:
        charge(ipf::Bucket::Idle, 1200);
        virtual_time_us_ += 3.5;
        break;
      case Service::KernelWork:
        charge(ipf::Bucket::Native, 1000.0 * args[0]);
        virtual_time_us_ += args[0];
        break;
      case Service::SetHandler:
        handler_eip_ = args[0];
        break;
      case Service::Unknown:
        el_warn("%s: unknown system service", name());
        result = static_cast<uint32_t>(-1);
        break;
    }
    writeResult(state, result);
    return res;
}

ExceptionDisposition
SimOsBase::deliver(ia32::State &state, const ia32::Fault &fault)
{
    if (handler_eip_ == 0)
        return ExceptionDisposition::Terminate;
    // Minimal frame: the handler receives the fault kind, address and
    // faulting EIP in registers and decides where to resume.
    state.gpr[ia32::RegEax] = static_cast<uint32_t>(fault.kind);
    state.gpr[ia32::RegEbx] = fault.addr;
    state.gpr[ia32::RegEcx] = fault.eip;
    state.eip = handler_eip_;
    return ExceptionDisposition::Resume;
}

Service
SimLinux::decodeService(const ia32::State &state, uint32_t args[3])
{
    args[0] = state.gpr[ia32::RegEbx];
    args[1] = state.gpr[ia32::RegEcx];
    args[2] = state.gpr[ia32::RegEdx];
    return linux_abi::serviceFor(state.gpr[ia32::RegEax]);
}

void
SimLinux::writeResult(ia32::State &state, uint32_t result)
{
    state.gpr[ia32::RegEax] = result;
}

Service
SimWindows::decodeService(const ia32::State &state, uint32_t args[3])
{
    // Arguments live in an in-memory block pointed to by EDX.
    uint32_t block = state.gpr[ia32::RegEdx];
    for (int k = 0; k < 3; ++k) {
        uint64_t v = 0;
        if (mem_.read(block + 4u * k, 4, &v).ok())
            args[k] = static_cast<uint32_t>(v);
    }
    return windows_abi::serviceFor(state.gpr[ia32::RegEax]);
}

void
SimWindows::writeResult(ia32::State &state, uint32_t result)
{
    state.gpr[ia32::RegEax] = result;
}

} // namespace el::btlib
