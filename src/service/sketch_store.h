// A sharded, thread-safe collection of sketches keyed by vector id — the
// catalog side of the dataset-search workload (§1.2): every dataset in the
// corpus is sketched once at ingest time and queries later run against
// sketches only.
//
// The store is *family-generic*: it is built from a family name ("wmh",
// "cs", ...) plus FamilyOptions through the sketch/family.h registry and
// handles sketches only through the polymorphic SketchFamily interface, so
// a CountSketch catalog and a Weighted MinHash catalog run through exactly
// the same code.
//
// Concurrency model: N shards (hash-on-id). Each shard is one immutable
// epoch view (ShardView), and that view is the shard's only copy of its
// sketches. Every read — size, Lookup, TotalResidentWords, query scans —
// pins views and never takes a shard's writer mutex (see
// docs/ARCHITECTURE.md's snapshot-epoch protocol). One mutex per shard
// serializes that shard's writers, which build and publish the successor
// view; writers to different shards never contend.
// Every write goes through one private merge: InsertBatch (behind Insert,
// batch ingest, decode and QuantizeStore) hands it the batch, and Erase
// hands it a one-entry run. It publishes each shard it changes once and
// tells the listener of each write through one callback. Batch ingest
// sketches *outside* any lock with one family Sketcher per worker thread.
//
// Every sketch in a store shares the family's resolved options — the
// estimator's compatibility requirement — enforced at construction and on
// every insert through SketchFamily::CheckCompatible.

#ifndef IPSKETCH_SERVICE_SKETCH_STORE_H_
#define IPSKETCH_SERVICE_SKETCH_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "service/metrics.h"
#include "service/thread_pool.h"
#include "sketch/family.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

/// Configuration for `SketchStore::Make`.
struct SketchStoreOptions {
  /// Registry key of the sketch family every entry is built with.
  std::string family = "wmh";
  /// Family options. `sketch.dimension` is required (> 0): sketches of
  /// different dimensions are not comparable. Family defaults (e.g. WMH's
  /// L = DefaultL(dimension)) are resolved once, at Make, so the resolved
  /// values are part of the store's identity and survive persistence.
  FamilyOptions sketch;
  /// Shard count. More shards = less write contention; 16 is plenty below
  /// a few dozen threads. Must be positive.
  size_t num_shards = 16;

  /// Validates field ranges (family-specific checks happen in Make).
  Status Validate() const;
};

/// An immutable point-in-time view of one shard — the store's only
/// representation of the shard and its only read path. Writers
/// copy-on-write: every mutation builds the successor view under the shard
/// lock and publishes it with one shared_ptr swap, so readers pin an epoch
/// with one shared_ptr copy and never touch the shard's writer mutex
/// (RCU-style; a pinned view keeps its sketches alive however many epochs
/// the shard advances past it). Its sketches belong to the store's family,
/// which is fixed at Make, so readers estimate through store.family().
struct ShardView {
  /// Per-shard publication sequence number; the empty pre-insert view is
  /// epoch 0 and every mutation increments it.
  uint64_t epoch = 0;
  /// Sorted ascending; parallel to `sketches`.
  std::vector<uint64_t> ids;
  std::vector<std::shared_ptr<const AnySketch>> sketches;

  /// The sketch stored under `id`, or nullptr (binary search over `ids`).
  const AnySketch* Find(uint64_t id) const;
};

using ShardViewPtr = std::shared_ptr<const ShardView>;

/// The sharded concurrent id → sketch store. All public methods are
/// thread-safe.
class SketchStore {
 public:
  /// Receives synchronous write notifications (see AttachListener). The
  /// callback runs *under the shard lock* of the written id's shard, right
  /// after the successor view is published, so a listener observing one
  /// shard's stream sees its writes in order and can mirror the shard
  /// consistently; a batch's callbacks for a shard follow its one
  /// publication, one per surviving id, in id order. Each call also carries
  /// the sketch the write took out of the store, so a listener can unfile
  /// whatever it derived from that sketch without keeping its own per-id
  /// record. Callbacks must be fast and must never mutate the store (the
  /// lock is held — deadlock); reads, which only pin views, are fine. The
  /// sketch pointers are valid only for the duration of the call.
  class Listener {
   public:
    virtual ~Listener() = default;
    /// After a write to `id`. `stored` is the sketch now stored under it,
    /// or nullptr for an erase. `displaced` is the sketch it held before,
    /// or nullptr if `id` was not stored (a new id, or a replay at
    /// attach). An erase of an absent id is not a write and calls nothing.
    virtual void OnWrite(uint64_t id, const AnySketch* stored,
                         const AnySketch* displaced) = 0;
  };

  /// Builds the family from the registry (resolving option defaults) and an
  /// empty store around it.
  static Result<SketchStore> Make(const SketchStoreOptions& options);

  SketchStore(SketchStore&&) = default;
  /// Move assignment first retires the target's sketches from the
  /// occupancy gauges (they are being destroyed), then adopts the source's.
  /// Analysis escape: a move requires external exclusivity over both stores
  /// (the header forbids moving with a listener attached or any concurrent
  /// user), so the listener fields are transferred without their mutex —
  /// which is itself being transferred.
  SketchStore& operator=(SketchStore&& other) noexcept
      IPS_NO_THREAD_SAFETY_ANALYSIS;

  /// Subtracts this store's sketches from the process-wide size/occupancy
  /// gauges (a moved-from store holds none and subtracts nothing).
  ~SketchStore();

  /// The store's options with family defaults resolved.
  const SketchStoreOptions& options() const { return options_; }

  /// The sketch family every entry belongs to, fixed at Make. Valid for
  /// the store's lifetime; query engines estimate through it.
  const SketchFamily& family() const { return *family_; }

  /// Number of shards.
  size_t num_shards() const { return shards_.size(); }

  /// Total number of stored sketches (sums pinned views; not a
  /// point-in-time snapshot across shards).
  size_t size() const;

  /// Inserts (or replaces) every entry, later entries winning on duplicate
  /// ids. All or nothing: InvalidArgument, and nothing inserted, if any
  /// sketch is null or incompatible with the family's options. Each
  /// touched shard is published once (shard after shard, so a reader may
  /// see some before others).
  Status InsertBatch(
      std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> entries);

  /// Inserts (or replaces) a pre-built sketch: an InsertBatch of one.
  Status Insert(uint64_t id, std::unique_ptr<AnySketch> sketch);

  /// Sketches `vec` with the store's family and inserts it under `id`: a
  /// one-entry BuildAndInsertBatch on the calling thread. Callers on a hot
  /// path that already hold a Sketcher should sketch themselves and call
  /// Insert; this is the convenient serial form.
  Status BuildAndInsert(uint64_t id, const SparseVector& vec);

  /// Sketches a whole batch, fanning the sketching work across `pool` (one
  /// Sketcher per worker; nullptr = sketch serially on the calling thread),
  /// then inserts every sketch with one InsertBatch. All or nothing: if any
  /// entry fails to sketch, nothing is inserted and the first error is
  /// returned (on the pooled path, the first one a worker reports). Later
  /// batch entries win on duplicate ids.
  Status BuildAndInsertBatch(
      const std::vector<std::pair<uint64_t, SparseVector>>& batch,
      ThreadPool* pool);

  /// Copies out the sketch stored under `id`; NotFound if absent.
  Result<std::unique_ptr<AnySketch>> Lookup(uint64_t id) const;

  /// Removes `id`: a one-entry run of the merge InsertBatch runs. NotFound,
  /// with nothing published or counted, if absent.
  Status Erase(uint64_t id);

  /// Attaches the single write listener and replays every resident entry
  /// as OnWrite(id, sketch, nullptr), shard by shard, under each shard's
  /// lock. Each entry is delivered exactly once: the listener pointer is
  /// published under the same shard-lock hold that replays the shard, so an
  /// entry is either replayed then or notifies on a later write, never both.
  /// FailedPrecondition if a listener is already attached. Detach before
  /// destroying either side; the store must not be moved from or assigned
  /// to while a listener is attached.
  Status AttachListener(Listener* listener);

  /// Detaches `listener`. InvalidArgument if it is not the attached one.
  Status DetachListener(Listener* listener);

  /// Pins the currently published view of one shard: one shared_ptr copy
  /// under the shard's pin lock, never the writer mutex, never null. The
  /// view is immutable and sorted by id; holding the pointer keeps its
  /// epoch's sketches alive while writers publish newer epochs, so reads
  /// never wait on ingest.
  ShardViewPtr PinShard(size_t shard) const;

  /// Pins every shard's current view, in shard order. Each view is
  /// internally consistent, but the set is *not* a point-in-time image
  /// across shards: concurrent writers may publish between two pins.
  std::vector<ShardViewPtr> PinStore() const;

  /// The shard an id maps to (stable across runs — persistence relies on a
  /// load with equal num_shards reproducing the layout).
  size_t ShardOf(uint64_t id) const;

  /// Sum of family().ResidentWords over every stored sketch — the actual
  /// in-memory catalog footprint in 64-bit words. For a full-precision
  /// "wmh" store this is ~2 words/sample; QuantizeStore to "wmh_compact"
  /// halves it.
  double TotalResidentWords() const;

 private:
  struct Shard {
    /// Serializes this shard's writers (ApplyWrites): epoch, publication,
    /// and the listener pointer. Readers never take it.
    mutable Mutex mu{LockRank::kStoreShard};
    /// Mirror of the store-level listener, guarded by `mu` so the write
    /// path needs no second lock to find it.
    Listener* listener IPS_GUARDED_BY(mu) = nullptr;
    /// Publication count — the epoch stamped into the next view.
    uint64_t version IPS_GUARDED_BY(mu) = 0;
    /// Guards only the `view` pointer: held for one shared_ptr copy (Pin)
    /// or swap (PublishLocked), never across a splice, so readers and
    /// writers never wait on each other's work. A plain lock rather than
    /// std::atomic<std::shared_ptr>, whose libstdc++ 12 load releases its
    /// internal spinlock with relaxed ordering — a data race ThreadSanitizer
    /// reports. kLeaf: nothing is acquired under it.
    mutable Mutex pin_mu{LockRank::kLeaf};
    /// The published immutable view, copy-on-write from its predecessor.
    /// Initialized to the empty epoch-0 view at construction, so readers
    /// never observe null.
    ShardViewPtr view IPS_GUARDED_BY(pin_mu);

    ShardViewPtr Pin() const {
      MutexLock lock(&pin_mu);
      return view;
    }
  };

  SketchStore(SketchStoreOptions options,
              std::shared_ptr<const SketchFamily> family);

  /// The store's one write path: stores each sketch of `writes` under its
  /// id, or erases the id where the sketch is null, the later write to an
  /// id winning. Per shard, under its lock, it merges the shard's sorted
  /// run into the current view, publishes the result once, then calls the
  /// listener once per surviving write, in id order; a shard whose writes
  /// change nothing (erases of absent ids) is not published. Returns the
  /// number of resident ids erased. Callers validate the sketches first.
  size_t ApplyWrites(
      std::vector<std::pair<uint64_t, std::unique_ptr<AnySketch>>> writes);

  /// Stamps `next` with the shard's next epoch and publishes it; the
  /// superseded view is released after the pin lock is dropped.
  void PublishLocked(Shard& shard, std::shared_ptr<ShardView> next)
      IPS_REQUIRES(shard.mu);

  /// Subtracts every shard's current occupancy from the gauges — the
  /// shared cleanup of the destructor and move assignment.
  void RetireOccupancy();

  SketchStoreOptions options_;
  std::shared_ptr<const SketchFamily> family_;
  // unique_ptrs because Shard (mutex) is immovable but the store is not.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Serializes attach/detach; unique_ptr because the store is movable
  // (Mutex is not). The per-shard mirrors are what the write path reads.
  // kListenerRegistry: AttachListener holds it *across* the per-shard
  // replay, so it must rank below every shard lock.
  std::unique_ptr<Mutex> listener_mu_ =
      std::make_unique<Mutex>(LockRank::kListenerRegistry);
  Listener* listener_ IPS_GUARDED_BY(*listener_mu_) = nullptr;

  // Process-wide store metrics (all SketchStore instances aggregate;
  // gauges track live totals via paired +/- updates). Registry-owned.
  metrics::Counter* inserts_ = nullptr;
  metrics::Counter* erases_ = nullptr;
  metrics::Histogram* ingest_ns_ = nullptr;
  metrics::Gauge* size_gauge_ = nullptr;
  // One gauge per shard index, named ...{shard="i"} — per-shard skew is
  // visible directly in the exposition.
  std::vector<metrics::Gauge*> shard_occupancy_;
};

/// The only way to quantize a catalog: builds a new store of family
/// `target_family` ("wmh_compact" or "wmh_bbit"; `extra_params` adds
/// quantizer knobs such as {"bits", "8"}) holding the quantized form of
/// every sketch in the full-precision "wmh" `source`, which is untouched.
/// The result inherits the source's resolved options (seed, L, engine),
/// ids and shard layout, so estimates flow through QueryEngine unchanged.
/// Every sketch is quantized, then inserted with one InsertBatch; peak
/// memory is the source plus the compact copy. To compact in place,
/// quiesce the store and move-assign:
/// `store = QuantizeStore(store, "wmh_compact").value();`.
/// FailedPrecondition if `source` is not "wmh"; InvalidArgument for a
/// non-quantized target family or bad params.
Result<SketchStore> QuantizeStore(
    const SketchStore& source, const std::string& target_family,
    const std::map<std::string, std::string>& extra_params = {});

}  // namespace ipsketch

#endif  // IPSKETCH_SERVICE_SKETCH_STORE_H_
