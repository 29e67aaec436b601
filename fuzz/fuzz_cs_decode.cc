// Fuzz target: CountSketch wire decode (tag 5), covering the 2-D
// repetitions × width shape validation.
#include <cstdint>
#include <string_view>

#include "fuzz/decode_contract.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  ipsketch::fuzz::CheckCs(bytes);
  return 0;
}
