// Fuzz target: compact (quantized) WMH sketch wire decode (tag 8),
// covering the engine byte.
#include <cstdint>
#include <string_view>

#include "fuzz/decode_contract.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  ipsketch::fuzz::CheckCompactWmh(bytes);
  return 0;
}
