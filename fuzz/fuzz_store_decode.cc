// Fuzz target: store-file load — header magic/version, family name and
// resolved-options block, shard and entry parsing, and checksum trailer.
// The harness also re-seals the input with a correct checksum trailer so
// coverage reaches past the trailer check (see CheckStore).
#include <cstdint>
#include <string_view>

#include "fuzz/decode_contract.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  ipsketch::fuzz::CheckStore(bytes);
  return 0;
}
