#include "common/mutex.h"

#include <cstdio>
#include <cstdlib>

namespace ipsketch {
namespace lock_rank_internal {

#ifndef NDEBUG

namespace {

// Per-thread stack of held mutexes. Real chains are ≤ 4 deep
// (kListenerRegistry → kStoreShard → kIndexShard, one band's lock at a
// time → kLeaf); 16 leaves
// headroom without ever allocating on a lock path.
constexpr size_t kMaxHeld = 16;

struct HeldStack {
  const Mutex* held[kMaxHeld];
  size_t depth = 0;
};

thread_local HeldStack tls_held;

[[noreturn]] void RankViolation(const Mutex* mu, const Mutex* conflicting) {
  std::fprintf(
      stderr,
      "lock rank violation: acquiring mutex %p (rank %d) while holding "
      "mutex %p (rank %d); held stack depth %zu — ranks must strictly "
      "increase along every acquisition chain (see common/mutex.h)\n",
      static_cast<const void*>(mu), static_cast<int>(mu->rank()),
      static_cast<const void*>(conflicting),
      static_cast<int>(conflicting->rank()), tls_held.depth);
  std::abort();
}

}  // namespace

void CheckAcquire(const Mutex* mu) {
  const int rank = static_cast<int>(mu->rank());
  for (size_t i = 0; i < tls_held.depth; ++i) {
    // >= — equal ranks never nest: relocking the same mutex, sibling
    // shards of one store, or shards of two different stores all abort.
    if (static_cast<int>(tls_held.held[i]->rank()) >= rank) {
      RankViolation(mu, tls_held.held[i]);
    }
  }
}

void PushHeld(const Mutex* mu) {
  if (tls_held.depth >= kMaxHeld) {
    std::fprintf(stderr,
                 "lock rank violation: thread holds %zu locks — deeper than "
                 "any sanctioned chain (common/mutex.h kMaxHeld)\n",
                 tls_held.depth);
    std::abort();
  }
  tls_held.held[tls_held.depth++] = mu;
}

void PopHeld(const Mutex* mu) {
  // LIFO in practice (scoped guards), but tolerate out-of-order release so
  // the checker never constrains correct code.
  for (size_t i = tls_held.depth; i-- > 0;) {
    if (tls_held.held[i] == mu) {
      for (size_t j = i + 1; j < tls_held.depth; ++j) {
        tls_held.held[j - 1] = tls_held.held[j];
      }
      --tls_held.depth;
      return;
    }
  }
  std::fprintf(stderr,
               "lock rank violation: releasing mutex %p (rank %d) this "
               "thread does not hold\n",
               static_cast<const void*>(mu), static_cast<int>(mu->rank()));
  std::abort();
}

size_t HeldDepthForTesting() { return tls_held.depth; }

#else  // NDEBUG

size_t HeldDepthForTesting() { return 0; }

#endif  // NDEBUG

}  // namespace lock_rank_internal
}  // namespace ipsketch
