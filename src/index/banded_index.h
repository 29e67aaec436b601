// MinHash-LSH banded candidate index over a SketchStore — sublinear top-k.
//
// The m positionally-coordinated samples of each stored sketch are split
// into b bands of r rows (b·r ≤ m); each band's r per-sample collision
// codes hash to one 64-bit band key, and every stored sketch is filed into
// one bucket per band. A query collides with a stored sketch in a band iff
// all r samples match, which for (weighted) Jaccard similarity J happens
// with probability J^r per band, so a sketch becomes a candidate with
// probability 1 − (1 − J^r)^b — the classic LSH S-curve: (b, r) is the
// recall/cost knob.
//
// The index holds ids, never sketches. Candidates come from the buckets;
// scores come from the store's pinned ShardView, through the same
// SketchFamily::EstimateMany the exact scan calls, so a banded hit's
// estimate is bit-identical to the exact scan's for that id — banding only
// ever *misses* true hits, never mis-scores them.
//
// The index is b flat BandPostings tables, one per band, of 16-byte
// (band key, id) postings — no per-bucket or per-id allocation, and no
// record of which keys an id was filed under: the store's one write
// callback hands the listener the sketch a write displaced, and the index
// recomputes that sketch's b keys to unfile it.
//
// The index is a SketchStore::Listener: MakeAttached subscribes it to the
// store and replays what is already resident, after which every write —
// insert, replace or erase — is mirrored synchronously by its one callback,
// OnWrite, under the store's shard lock for that id. OnWrite visits each
// band once: in one hold of that band's mutex it unfiles the displaced
// sketch's key and files the stored one's, so no probe finds an id missing
// from a band whose key the write left unchanged. Band locks are taken one
// at a time, never nested; the only lock order is store-shard → band.
//
// A probe is two steps. CollectCandidates walks the query's bucket in
// each band once, under that band's lock, and groups the ids it finds by
// store shard (SketchStore::ShardOf); ScoreShard then scores one shard's
// group against that shard's pinned view, under no index lock, so queries
// never deadlock against writers.
//
// Supported families: exactly those with FamilyInfo::supports_banding (the
// minwise samplers wmh, icws, mh, wmh_compact, wmh_bbit). The linear
// sketches (cs, jl) and kmv are rejected at MakeAttached with
// FailedPrecondition — their coordinates are not positionally coordinated
// samples, so banding them would be silently meaningless.

#ifndef IPSKETCH_INDEX_BANDED_INDEX_H_
#define IPSKETCH_INDEX_BANDED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "core/similarity_search.h"
#include "service/metrics.h"
#include "service/sketch_store.h"

namespace ipsketch {

/// The (b, r) banding knob. Recall for similarity J is 1 − (1 − J^r)^b:
/// more bands = more recall and more candidates; more rows = sharper
/// selectivity. bands·rows ≤ m; samples beyond bands·rows are unused by the
/// filter (re-ranking always uses all m). The default is the documented
/// operating point, the full filter width of the families' default
/// m = 128.
struct BandedLshParams {
  size_t bands = 16;
  size_t rows = 8;

  /// Ok iff bands, rows ≥ 1 and bands·rows ≤ num_samples.
  Status Validate(size_t num_samples) const;
};

/// Per-query probe counters, aggregated across shards by the caller.
struct IndexProbeStats {
  uint64_t buckets_probed = 0;  ///< buckets that yielded an id of the shard
  uint64_t candidates = 0;      ///< deduped candidates re-ranked
};

/// One query's candidates from a walk of every band (step one of a probe),
/// grouped by store shard.
struct BandCandidates {
  /// Deduped ids in (store shard, id) order; shard s's group is
  /// ids[begin[s], begin[s + 1]).
  std::vector<uint64_t> ids;
  std::vector<size_t> begin;
  /// buckets[s]: the buckets that yielded an id of shard s. A bucket counts
  /// once for each shard it yields ids for.
  std::vector<uint64_t> buckets;

  /// Shard s's group of ids.
  std::span<const uint64_t> Shard(size_t s) const {
    return {ids.data() + begin[s], ids.data() + begin[s + 1]};
  }
};

/// One band's postings: an open-addressing multimap from 64-bit band
/// key to 64-bit id, stored as a flat power-of-two array of 16-byte
/// (key, id) slots probed linearly from `key & (capacity − 1)` — band keys
/// are Mix64 outputs, so their low bits are already uniform. Occupancy lives
/// in a separate one-bit-per-slot bitmap, so no key or id value is reserved
/// to mean "empty". The table doubles (rehashing every posting) before its
/// load would pass kMaxLoadNum / kMaxLoadDen, deletion shifts the rest of
/// the probe run back instead of leaving tombstones, and nothing is
/// allocated per posting.
///
/// Not thread-safe: BandedIndex guards each band's table with that band's
/// mutex. Public so its probing edge cases can be tested directly.
class BandPostings {
 public:
  static constexpr size_t kInitialCapacity = 64;
  /// Maximum load, as the fraction kMaxLoadNum / kMaxLoadDen.
  static constexpr size_t kMaxLoadNum = 3;
  static constexpr size_t kMaxLoadDen = 4;

  BandPostings();

  /// Files one (key, id) posting. Filing the same pair twice keeps two
  /// postings; each Erase unfiles one.
  void Insert(uint64_t key, uint64_t id);

  /// Unfiles one (key, id) posting. Returns false if none is filed.
  bool Erase(uint64_t key, uint64_t id);

  /// Appends every id filed under `key` to `ids`; returns how many.
  size_t Append(uint64_t key, std::vector<uint64_t>* ids) const;

  /// Asks the cache for `key`'s home slot ahead of an Append.
  void Prefetch(uint64_t key) const;

  /// Postings filed.
  size_t size() const { return size_; }

  /// Slots allocated (a power of two, at least kInitialCapacity).
  size_t capacity() const { return slots_.size(); }

 private:
  struct Posting {
    uint64_t key;
    uint64_t id;
  };

  bool Occupied(size_t slot) const {
    return (occupied_[slot >> 6] >> (slot & 63)) & 1;
  }
  size_t Home(uint64_t key) const { return static_cast<size_t>(key) & mask_; }

  /// Empties the table at `capacity` slots.
  void Reset(size_t capacity);

  /// Stores `posting` in the first free slot of its probe run.
  void Place(const Posting& posting);

  std::vector<Posting> slots_;
  std::vector<uint64_t> occupied_;  ///< bit i set iff slots_[i] is filed
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// The banded index over one store. Thread-safe; see the file comment for
/// the locking model.
class BandedIndex final : public SketchStore::Listener {
 public:
  /// Builds an index over `store` and attaches it as the store's write
  /// listener, replaying everything already resident. FailedPrecondition if
  /// the store's family does not support banding or a listener is already
  /// attached; InvalidArgument for out-of-range (b, r). The store must
  /// outlive the returned index (which detaches itself on destruction).
  static Result<std::unique_ptr<BandedIndex>> MakeAttached(
      SketchStore* store, const BandedLshParams& params);

  /// Detaches from the store.
  ~BandedIndex() override;

  BandedIndex(const BandedIndex&) = delete;
  BandedIndex& operator=(const BandedIndex&) = delete;

  /// The store this index mirrors.
  const SketchStore* store() const { return store_; }

  /// The banding knob the index was built with.
  const BandedLshParams& params() const { return params_; }

  /// Total resident sketches: the postings of band 0, where every resident
  /// id is filed once.
  size_t size() const;

  // SketchStore::Listener — called under the store's shard lock.
  void OnWrite(uint64_t id, const AnySketch* stored,
               const AnySketch* displaced) override;

  /// The query's b band keys, in band order — computed once per query and
  /// shared by both probe steps. InvalidArgument unless `query` passes the
  /// family's CheckCompatible.
  Status QueryBandKeys(const AnySketch& query,
                       std::vector<uint64_t>* keys) const;

  /// Probe step one: walks band j's bucket for keys[j] (from QueryBandKeys)
  /// once per band, each under that band's lock alone, and groups the ids
  /// found by store shard. Empty `keys` find nothing.
  BandCandidates CollectCandidates(const std::vector<uint64_t>& keys) const;

  /// Probe step two: scores `found`'s group for `shard` against `view`,
  /// that shard's pinned view, in one EstimateMany, and offers
  /// (id, estimate) to `heap` for every id the view holds (an id erased
  /// since step one is skipped). Adds the shard's buckets and scored
  /// candidates to `stats` and to the index counters. `query` must be
  /// compatible with the store's family.
  Status ScoreShard(const AnySketch& query, const BandCandidates& found,
                    size_t shard, const ShardView& view, TopKHeap* heap,
                    IndexProbeStats* stats) const;

  /// Both probe steps for one shard: step one over `keys` (from
  /// QueryBandKeys), then — only if the shard has candidates — step two
  /// against a fresh pin of its view. InvalidArgument, before any posting
  /// is read, unless `query` passes the family's CheckCompatible.
  Status ProbeShard(const AnySketch& query,
                    const std::vector<uint64_t>& keys, size_t shard,
                    TopKHeap* heap, IndexProbeStats* stats) const;

 private:
  struct Band {
    /// kIndexShard: acquired inside OnWrite while the store's shard lock
    /// (kStoreShard) is held — the mirror protocol's only order — and
    /// alone by probes. Never nested with another band's.
    mutable Mutex mu{LockRank::kIndexShard};
    /// One posting per resident id, under its key in this band. Keys are
    /// salted per band, so the bands' buckets are independent.
    BandPostings postings IPS_GUARDED_BY(mu);
  };

  BandedIndex(SketchStore* store, const BandedLshParams& params);

  /// QueryBandKeys for a stored sketch, or no keys for nullptr. Cannot
  /// fail: every sketch reaching the listener passed the store's
  /// CheckCompatible, and MakeAttached admits only banding families.
  std::vector<uint64_t> SketchKeys(const AnySketch* sketch) const;

  /// The b band keys of `codes` (one LSH code per sample), in band order.
  std::vector<uint64_t> BandKeys(const std::vector<uint64_t>& codes) const;

  SketchStore* store_;
  BandedLshParams params_;
  std::vector<std::unique_ptr<Band>> bands_;
  uint64_t key_seed_ = 0;
  bool attached_ = false;

  // Process-wide index metrics (registry-owned).
  metrics::Counter* inserts_ = nullptr;
  metrics::Counter* erases_ = nullptr;
  metrics::Counter* buckets_probed_ = nullptr;
  metrics::Counter* candidates_ = nullptr;
  metrics::Gauge* size_gauge_ = nullptr;
};

}  // namespace ipsketch

#endif  // IPSKETCH_INDEX_BANDED_INDEX_H_
