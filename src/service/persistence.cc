#include "service/persistence.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "service/metrics.h"
#include "sketch/serialize.h"

namespace ipsketch {
namespace {

// Persistence metrics live behind function-local statics: these are free
// functions with no object to hang registration on, and the registry hands
// out stable references for the process lifetime.
metrics::Histogram& SaveNsHistogram() {
  static metrics::Histogram& h = metrics::MetricsRegistry::Global().GetHistogram(
      "ipsketch_persist_save_ns", "SaveSketchStore wall time: encode + write");
  return h;
}

metrics::Histogram& LoadNsHistogram() {
  static metrics::Histogram& h = metrics::MetricsRegistry::Global().GetHistogram(
      "ipsketch_persist_load_ns", "LoadSketchStore wall time: read + decode");
  return h;
}

metrics::Counter& BytesWrittenCounter() {
  static metrics::Counter& c = metrics::MetricsRegistry::Global().GetCounter(
      "ipsketch_persist_bytes_written_total",
      "Encoded store bytes written to disk");
  return c;
}

metrics::Counter& BytesReadCounter() {
  static metrics::Counter& c = metrics::MetricsRegistry::Global().GetCounter(
      "ipsketch_persist_bytes_read_total", "Store bytes read from disk");
  return c;
}

metrics::Counter& ChecksumFailuresCounter() {
  static metrics::Counter& c = metrics::MetricsRegistry::Global().GetCounter(
      "ipsketch_persist_checksum_failures_total",
      "Store loads rejected by the FNV-1a trailer check");
  return c;
}

constexpr uint32_t kStoreMagic = 0x49505354;  // "IPST"
constexpr uint8_t kStoreVersion = 2;
// The pre-SketchFamily format: WMH-only, fixed header
// [dimension u64][num_shards u64][num_samples u64][seed u64][L u64]
// [engine u8], entries framed with SerializeWmh.
constexpr uint8_t kStoreVersionV1 = 1;
// Decode-time sanity cap: shards are allocated up front, so an absurd
// header value must become InvalidArgument, not a giant allocation. Real
// stores use dozens of shards; 2^16 is far beyond any sane deployment.
constexpr uint64_t kMaxDecodedShards = 1u << 16;

// FNV-1a over the encoded payload, stored as an 8-byte trailer. The wire
// framing alone only catches *structural* corruption; a flipped byte inside
// a double payload would otherwise load as a silently wrong sketch.
uint64_t Checksum(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Reads the v1 header into family-generic store options.
Status ReadV1Header(wire::BoundedReader* r, SketchStoreOptions* opts) {
  uint64_t num_shards = 0, num_samples = 0, L = 0;
  uint8_t engine = 0;
  IPS_RETURN_IF_ERROR(r->ReadU64(&opts->sketch.dimension));
  IPS_RETURN_IF_ERROR(r->ReadU64(&num_shards));
  IPS_RETURN_IF_ERROR(r->ReadU64(&num_samples));
  IPS_RETURN_IF_ERROR(r->ReadU64(&opts->sketch.seed));
  IPS_RETURN_IF_ERROR(r->ReadU64(&L));
  IPS_RETURN_IF_ERROR(r->ReadU8(&engine));
  if (engine > 1) {
    return Status::InvalidArgument("unknown sketch engine in v1 store file");
  }
  opts->family = "wmh";
  opts->num_shards = static_cast<size_t>(num_shards);
  opts->sketch.num_samples = static_cast<size_t>(num_samples);
  opts->sketch.params["L"] = std::to_string(L);
  opts->sketch.params["engine"] =
      engine == 0 ? "active_index" : "expanded_reference";
  return Status::Ok();
}

Status ReadV2Header(wire::BoundedReader* r, SketchStoreOptions* opts) {
  std::string_view family;
  IPS_RETURN_IF_ERROR(r->ReadBytes(&family));
  opts->family = std::string(family);
  uint64_t num_shards = 0;
  IPS_RETURN_IF_ERROR(r->ReadU64(&num_shards));
  opts->num_shards = static_cast<size_t>(num_shards);
  IPS_RETURN_IF_ERROR(ReadFamilyOptions(r, &opts->sketch));
  // v2 files written before the icws engine param existed carry an empty
  // params block; every sketch in them was built by the exact engine. The
  // modern default (dart) must not be substituted — the family would
  // reject the stored sketches (or, worse, relabel them), so pin the
  // legacy engine explicitly. (wmh files always carried their engine.)
  if (opts->family == "icws" &&
      opts->sketch.params.count("engine") == 0) {
    opts->sketch.params["engine"] = "icws";
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeSketchStore(const SketchStore& store) {
  const SketchStoreOptions& opts = store.options();
  std::string out;
  wire::AppendU32(&out, kStoreMagic);
  wire::AppendU8(&out, kStoreVersion);
  wire::AppendBytes(&out, opts.family);
  wire::AppendU64(&out, opts.num_shards);
  AppendFamilyOptions(&out, opts.sketch);

  // Count first, then entries in (shard, id) order. Views are pinned per
  // shard, so a concurrently-written store encodes *some* consistent-per-
  // shard state; quiesce writers for a point-in-time image.
  const std::vector<ShardViewPtr> views = store.PinStore();
  uint64_t count = 0;
  for (const ShardViewPtr& view : views) count += view->ids.size();
  wire::AppendU64(&out, count);
  for (const ShardViewPtr& view : views) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      const AnySketch& sketch = *view->sketches[i];
      wire::AppendU64(&out, view->ids[i]);
      // Serialize cannot fail here: every stored sketch passed the family's
      // CheckCompatible on insert, so it is of the family's concrete type.
      wire::AppendBytes(&out, store.family().Serialize(sketch).value());
    }
  }
  wire::AppendU64(&out, Checksum(out));
  return out;
}

Result<SketchStore> DecodeSketchStore(std::string_view bytes) {
  if (bytes.size() < 8) {
    return Status::InvalidArgument("sketch-store bytes too short");
  }
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  {
    wire::Reader trailer(bytes.substr(bytes.size() - 8));
    uint64_t stored = 0;
    IPS_RETURN_IF_ERROR(trailer.ReadU64(&stored));
    if (stored != Checksum(payload)) {
      ChecksumFailuresCounter().Add(1);
      return Status::InvalidArgument("sketch-store checksum mismatch");
    }
  }
  wire::BoundedReader r(payload);
  uint32_t magic = 0;
  IPS_RETURN_IF_ERROR(r.ReadU32(&magic));
  if (magic != kStoreMagic) {
    return Status::InvalidArgument("bad sketch-store magic");
  }
  uint8_t version = 0;
  IPS_RETURN_IF_ERROR(r.ReadU8(&version));

  SketchStoreOptions opts;
  if (version == kStoreVersionV1) {
    IPS_RETURN_IF_ERROR(ReadV1Header(&r, &opts));
  } else if (version == kStoreVersion) {
    IPS_RETURN_IF_ERROR(ReadV2Header(&r, &opts));
  } else {
    return Status::InvalidArgument("unsupported sketch-store version " +
                                   std::to_string(version));
  }

  if (opts.num_shards == 0 || opts.num_shards > kMaxDecodedShards) {
    return Status::InvalidArgument("sketch-store shard count out of range");
  }
  auto made = SketchStore::Make(opts);
  IPS_RETURN_IF_ERROR(made.status());
  SketchStore store = std::move(made).value();

  // Every entry costs at least 16 bytes (id + length prefix), so the
  // bounded count read rejects absurd values before the loop.
  uint64_t count = 0;
  IPS_RETURN_IF_ERROR(r.ReadCount(16, &count));
  std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    IPS_RETURN_IF_ERROR(r.ReadU64(&id));
    std::string_view blob;
    IPS_RETURN_IF_ERROR(r.ReadBytes(&blob));
    auto sketch = store.family().Deserialize(blob);
    IPS_RETURN_IF_ERROR(sketch.status());
    entries.emplace_back(id, std::move(sketch).value());
  }
  IPS_RETURN_IF_ERROR(r.ExpectEnd());
  // InsertBatch re-validates every entry against the family's resolved
  // options, so a file whose entries disagree with its own header is
  // rejected; it accepts any order and lets a later entry for an id replace
  // an earlier one.
  IPS_RETURN_IF_ERROR(store.InsertBatch(std::move(entries)));
  return store;
}

Status CheckStoreMatches(const SketchStore& store,
                         const SketchStoreOptions& expected) {
  if (store.options().family != expected.family) {
    return Status::FailedPrecondition(
        "store family mismatch: file holds '" + store.options().family +
        "', expected '" + expected.family + "'");
  }
  // Resolve the expectation through the registry so defaults (e.g. WMH's
  // L = 0 → DefaultL) compare against the file's resolved values.
  auto family = MakeFamily(expected.family, expected.sketch);
  if (!family.ok()) {
    return Status::FailedPrecondition("expected options are invalid: " +
                                      family.status().message());
  }
  const FamilyOptions& want = family.value()->options();
  const FamilyOptions& got = store.options().sketch;
  if (!(got == want)) {
    return Status::FailedPrecondition(
        "store options mismatch for family '" + expected.family +
        "': file has {" + FamilyOptionsToString(got) + "}, expected {" +
        FamilyOptionsToString(want) + "}");
  }
  return Status::Ok();
}

Status SaveSketchStore(const SketchStore& store, const std::string& path) {
  metrics::ScopedLatency latency(&SaveNsHistogram());
  const std::string bytes = EncodeSketchStore(store);
  // The temp file lives beside the target so the rename stays within one
  // file system; pid + counter keep concurrent savers apart.
  static std::atomic<uint64_t> save_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_seq.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::Internal("cannot open " + tmp + " for writing: " +
                            std::strerror(errno));
  }
  size_t written = 0;
  int err = 0;
  while (written < bytes.size() && err == 0) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n > 0) {
      written += static_cast<size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      err = n == 0 ? EIO : errno;
    }
  }
  BytesWrittenCounter().Add(static_cast<uint64_t>(written));
  if (err == 0 && ::fsync(fd) != 0) err = errno;
  if (::close(fd) != 0 && err == 0) err = errno;
  if (err == 0 && ::rename(tmp.c_str(), path.c_str()) != 0) err = errno;
  if (err != 0) {
    // Nothing reached `path`: drop the temp and leave the old file as is.
    ::unlink(tmp.c_str());
    return Status::Internal("cannot save " + path + ": " +
                            std::strerror(err));
  }
  // Make the rename itself durable by syncing the directory entry.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0 || ::fsync(dir_fd) != 0) err = errno;
  if (dir_fd >= 0) ::close(dir_fd);
  if (err != 0) {
    return Status::Internal("saved " + path +
                            " but cannot sync its directory: " +
                            std::strerror(err));
  }
  return Status::Ok();
}

Result<SketchStore> LoadSketchStore(const std::string& path) {
  metrics::ScopedLatency latency(&LoadNsHistogram());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::string bytes;
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("read error on " + path);
  }
  BytesReadCounter().Add(static_cast<uint64_t>(bytes.size()));
  return DecodeSketchStore(bytes);
}

Result<SketchStore> LoadSketchStoreAs(const std::string& path,
                                      const SketchStoreOptions& expected) {
  auto loaded = LoadSketchStore(path);
  IPS_RETURN_IF_ERROR(loaded.status());
  IPS_RETURN_IF_ERROR(CheckStoreMatches(loaded.value(), expected));
  return loaded;
}

}  // namespace ipsketch
