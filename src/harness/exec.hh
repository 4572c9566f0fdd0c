/**
 * @file
 * Whole-program execution harness.
 *
 * Runs one guest image three ways over identical initial conditions:
 *  - under the reference interpreter (the semantic oracle),
 *  - under the IA-32 EL runtime on the IPF machine (the paper's system),
 *  - under the direct-execution IA-32 cost model (the Figure-8 baseline).
 *
 * Used by the differential tests, the examples and every benchmark.
 */

#ifndef EL_HARNESS_EXEC_HH
#define EL_HARNESS_EXEC_HH

#include <memory>
#include <string>

#include "btlib/os_sim.hh"
#include "core/checkpoint.hh"
#include "core/options.hh"
#include "core/runtime.hh"
#include "guest/image.hh"
#include "ia32/interp.hh"
#include "ia32/timing.hh"

namespace el::harness
{

/** Outcome shared by all three execution modes. */
struct Outcome
{
    bool exited = false;      //!< Clean guest exit.
    int32_t exit_code = 0;
    bool faulted = false;     //!< Terminated by an unhandled fault.
    ia32::Fault fault{};
    bool internal_error = false; //!< Translator-side failure, not the
                                 //!< guest's: runtime init (handshake or
                                 //!< runtime-area allocation) or the
                                 //!< simulation budget (CycleLimit).
    std::string internal_reason; //!< Human-readable cause when set.
    std::string console;      //!< Captured guest output.
    ia32::State final_state;  //!< Architectural state at termination.
    uint64_t guest_insns = 0; //!< IA-32 instructions retired (interp
                              //!< and direct model; 0 when translated).
    double cycles = 0;        //!< Simulated cycles (timing modes).
};

/** Run the image under the reference interpreter + an OS personality. */
Outcome runInterpreter(const guest::Image &image, btlib::OsAbi abi,
                       uint64_t max_insns = 200u * 1000 * 1000);

/** Result of a translated run, with the runtime kept for inspection. */
struct TranslatedRun
{
    Outcome outcome;
    std::unique_ptr<mem::Memory> memory;
    std::unique_ptr<btlib::SimOsBase> os;
    std::unique_ptr<core::Runtime> runtime;
};

/**
 * Run the image under IA-32 EL on the IPF machine. With @p resume, the
 * run restores the checkpoint instead of starting at the image entry:
 * guest memory, OS state, and architectural registers come from the
 * capture, while the runtime itself (code cache, observers, runtime
 * area) is constructed fresh through the normal init path.
 */
TranslatedRun runTranslated(const guest::Image &image, btlib::OsAbi abi,
                            core::Options options = {},
                            const core::CheckpointImage *resume = nullptr);

/** Run under the direct IA-32 cost model (the Figure-8 baseline). */
Outcome runDirect(const guest::Image &image, btlib::OsAbi abi,
                  uint64_t max_insns = 200u * 1000 * 1000);

/** Make the OS personality for an ABI over @p memory. */
std::unique_ptr<btlib::SimOsBase> makeOs(btlib::OsAbi abi,
                                         mem::Memory &memory);

} // namespace el::harness

#endif // EL_HARNESS_EXEC_HH
