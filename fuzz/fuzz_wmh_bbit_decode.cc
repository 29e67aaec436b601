// Fuzz target: b-bit WMH fingerprint sketch wire decode (tag 9), covering
// the bits-width validation and the fingerprints-fit-width invariant.
#include <cstdint>
#include <string_view>

#include "fuzz/decode_contract.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  ipsketch::fuzz::CheckBbitWmh(bytes);
  return 0;
}
