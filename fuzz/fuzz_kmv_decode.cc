// Fuzz target: KMV (k-minimum-values) sketch wire decode (tag 3), covering
// the strictly-sorted sample invariant (including NaN hash rejection).
#include <cstdint>
#include <string_view>

#include "fuzz/decode_contract.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  ipsketch::fuzz::CheckKmv(bytes);
  return 0;
}
