#include "core/simd/dispatch.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

namespace ipsketch {
namespace simd {
namespace {

/// Test override; nullptr means "use the resolved tier".
std::atomic<const EstimateKernel*> g_override{nullptr};

bool CpuHasAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const EstimateKernel* Resolve() {
  if (ParseForceScalarEnv(std::getenv("IPSKETCH_FORCE_SCALAR"))) {
    return &ScalarKernel();
  }
  if (CpuHasAvx2()) {
    if (const EstimateKernel* k = Avx2Kernel()) return k;
  }
  return &ScalarKernel();
}

const EstimateKernel& ResolvedKernel() {
  static const EstimateKernel* kernel = Resolve();
  return *kernel;
}

}  // namespace

const EstimateKernel& ActiveKernel() {
  const EstimateKernel* override_kernel =
      g_override.load(std::memory_order_acquire);
  if (override_kernel != nullptr) return *override_kernel;
  return ResolvedKernel();
}

const char* ActiveKernelName() { return ActiveKernel().name; }

std::vector<const EstimateKernel*> AvailableKernels() {
  std::vector<const EstimateKernel*> out;
  out.push_back(&ScalarKernel());
  if (CpuHasAvx2()) {
    if (const EstimateKernel* k = Avx2Kernel()) out.push_back(k);
  }
  return out;
}

void SetActiveKernelForTesting(const EstimateKernel* kernel) {
  g_override.store(kernel, std::memory_order_release);
}

bool ParseForceScalarEnv(const char* value) {
  if (value == nullptr || value[0] == '\0') return false;
  std::string lowered(value);
  for (char& c : lowered) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  // Any other non-empty value (1, on, true, yes, ...) forces scalar.
  return lowered != "0" && lowered != "off" && lowered != "false" &&
         lowered != "no";
}

}  // namespace simd
}  // namespace ipsketch
