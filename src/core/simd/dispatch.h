// Runtime kernel dispatch: picks the EstimateKernel tier the running CPU
// supports, once, at first use. One binary runs everywhere — the AVX2 tier
// is compiled into its own translation unit and only ever entered after a
// cpuid check.
//
// Selection order: avx2 (x86 with runtime AVX2 support) → scalar (every
// other host: pre-AVX2 x86, AArch64, ...). IPSKETCH_FORCE_SCALAR=1 in the
// environment (read once, at first resolution) forces the scalar tier; "0",
// "off", "false", "no" (any case), and empty mean no force. CI runs the
// whole test suite a second time under it, which is exactly what a host
// without AVX2 runs, and field debugging uses it too. The AVX2 tier is
// still listed by AvailableKernels(), so the equivalence tests exercise it
// under the force as well; only dispatch is pinned.
//
// All estimators fetch the table per call via ActiveKernel(), so the test
// override below takes effect everywhere at once.

#ifndef IPSKETCH_CORE_SIMD_DISPATCH_H_
#define IPSKETCH_CORE_SIMD_DISPATCH_H_

#include <vector>

#include "core/simd/estimate_kernels.h"

namespace ipsketch {
namespace simd {

/// The dispatched kernel tier: resolved once (thread-safe), then constant
/// for the life of the process unless overridden for testing.
const EstimateKernel& ActiveKernel();

/// The dispatched tier's name ("scalar" or "avx2") — recorded in bench
/// artifacts so results are interpretable across runners.
const char* ActiveKernelName();

/// Every tier this binary can run on this machine, scalar first. The
/// equivalence tests iterate this list and compare each tier against
/// scalar bit for bit.
std::vector<const EstimateKernel*> AvailableKernels();

/// Process-wide kernel override for tests and benches: pass a kernel from
/// AvailableKernels() to pin it, nullptr to restore dispatch. Not intended
/// for production code paths.
void SetActiveKernelForTesting(const EstimateKernel* kernel);

/// True iff `value` (an IPSKETCH_FORCE_SCALAR environment setting; may be
/// nullptr for unset) requests the scalar tier. Exposed for unit tests.
bool ParseForceScalarEnv(const char* value);

}  // namespace simd
}  // namespace ipsketch

#endif  // IPSKETCH_CORE_SIMD_DISPATCH_H_
