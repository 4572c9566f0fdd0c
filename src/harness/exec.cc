#include "harness/exec.hh"

#include "support/logging.hh"

namespace el::harness
{

std::unique_ptr<btlib::SimOsBase>
makeOs(btlib::OsAbi abi, mem::Memory &memory)
{
    if (abi == btlib::OsAbi::Windows)
        return std::make_unique<btlib::SimWindows>(memory);
    return std::make_unique<btlib::SimLinux>(memory);
}

Outcome
runInterpreter(const guest::Image &image, btlib::OsAbi abi,
               uint64_t max_insns)
{
    Outcome out;
    mem::Memory memory;
    uint32_t esp = guest::load(image, memory);
    auto os = makeOs(abi, memory);
    btlib::BtOsClient client(os->vtable());
    el_assert(client.ok(), "BTOS handshake failed: %s",
              client.error().c_str());

    ia32::State state;
    state.eip = image.entry;
    state.gpr[ia32::RegEsp] = esp;
    ia32::Interpreter interp(state, memory);

    for (uint64_t k = 0; k < max_insns; ++k) {
        ia32::StepResult res = interp.step();
        if (res.kind == ia32::StepKind::Ok)
            continue;
        if (res.kind == ia32::StepKind::Int) {
            btlib::SyscallResult sr =
                client.systemService(state, res.vector);
            if (sr.exit) {
                out.exited = true;
                out.exit_code = sr.exit_code;
                break;
            }
            continue;
        }
        if (res.kind == ia32::StepKind::Halt) {
            out.exited = true;
            out.exit_code = 0;
            break;
        }
        // Fault: deliver to the registered handler, if any.
        btlib::ExceptionDisposition disp =
            client.deliverException(state, res.fault);
        if (disp == btlib::ExceptionDisposition::Terminate) {
            out.faulted = true;
            out.fault = res.fault;
            break;
        }
    }
    out.console = os->consoleOutput();
    out.final_state = state;
    out.guest_insns = interp.retired();
    return out;
}

TranslatedRun
runTranslated(const guest::Image &image, btlib::OsAbi abi,
              core::Options options, const core::CheckpointImage *resume)
{
    TranslatedRun run;
    run.memory = std::make_unique<mem::Memory>();
    uint32_t esp = guest::load(image, *run.memory);
    // From here on "dirty" means "not re-derivable from the image":
    // the page set a checkpoint captures data for.
    run.memory->clearDirty();
    if (resume)
        core::applyCheckpointMemory(*resume, *run.memory);
    run.os = makeOs(abi, *run.memory);
    run.runtime = std::make_unique<core::Runtime>(
        *run.memory, run.os->vtable(), options);
    if (!run.runtime->initOk()) {
        run.outcome.internal_error = true;
        run.outcome.internal_reason = run.runtime->initError();
        return run;
    }
    // Restore the OS AFTER runtime construction: the fresh runtime's
    // area allocation must consume the same default alloc region the
    // original run's startup did (so rtBase matches and the captured
    // page set stays disjoint from it); only then may alloc_next jump
    // to the captured value, so post-resume guest allocations land at
    // exactly the addresses the uninterrupted run would have used.
    if (resume)
        run.os->restore(resume->os);
    run.os->setCycleSink([rt = run.runtime.get()](ipf::Bucket b,
                                                  double c) {
        rt->machine().chargeCycles(b, c);
    });
    if (options.checkpointer)
        options.checkpointer->setOsSource(
            [osp = run.os.get()] { return osp->snapshot(); });

    ia32::State state;
    if (resume) {
        state = resume->state;
    } else {
        state.eip = image.entry;
        state.gpr[ia32::RegEsp] = esp;
    }

    core::RunResult rr = run.runtime->run(state);
    // Let tail-end pipeline sessions land so the flight recorder and
    // the run report see the same events on every run.
    run.runtime->quiesce();
    Outcome &out = run.outcome;
    // The runtime came up (checked above), so the run ended by exit,
    // guest fault or cycle budget.
    if (rr.kind == core::RunResult::Kind::Exit) {
        out.exited = true;
        out.exit_code = rr.exit_code;
    } else if (rr.kind == core::RunResult::Kind::Fault) {
        out.faulted = true;
        out.fault = rr.fault;
    } else {
        out.internal_error = true;
        out.internal_reason = "simulation cycle budget exhausted";
    }
    out.console = run.os->consoleOutput();
    out.final_state = state;
    out.cycles = run.runtime->machine().totalCycles();
    return run;
}

Outcome
runDirect(const guest::Image &image, btlib::OsAbi abi,
          uint64_t max_insns)
{
    Outcome out;
    mem::Memory memory;
    uint32_t esp = guest::load(image, memory);
    auto os = makeOs(abi, memory);
    btlib::BtOsClient client(os->vtable());

    // Native/idle time in the direct model accrues as plain cycles.
    double extra_cycles = 0;
    os->setCycleSink([&extra_cycles](ipf::Bucket, double c) {
        extra_cycles += c;
    });

    ia32::State state;
    state.eip = image.entry;
    state.gpr[ia32::RegEsp] = esp;
    ia32::DirectRunner runner(state, memory);

    ia32::StepResult last = runner.run(max_insns, [&](uint8_t vector) {
        btlib::SyscallResult sr = client.systemService(state, vector);
        if (sr.exit) {
            out.exited = true;
            out.exit_code = sr.exit_code;
            return false;
        }
        return true;
    });
    if (last.kind == ia32::StepKind::Halt) {
        out.exited = true;
    } else if (last.kind == ia32::StepKind::Fault) {
        out.faulted = true;
        out.fault = last.fault;
    }
    out.console = os->consoleOutput();
    out.final_state = state;
    out.guest_insns = runner.retired();
    out.cycles = runner.cycles() + extra_cycles;
    return out;
}

} // namespace el::harness
