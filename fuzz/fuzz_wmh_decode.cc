// Fuzz target: Weighted MinHash sketch wire decode (tag 1), covering the
// engine byte and the v1 (engine-less) compatibility path.
#include <cstdint>
#include <string_view>

#include "fuzz/decode_contract.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  ipsketch::fuzz::CheckWmh(bytes);
  return 0;
}
