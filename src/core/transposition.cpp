#include "core/transposition.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <tuple>

#include "rev/pprm.hpp"  // splitmix64

namespace rmrls {

namespace {

std::size_t round_down_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

}  // namespace

TranspositionTable::TranspositionTable(int mb) {
  const std::size_t budget = static_cast<std::size_t>(mb < 1 ? 1 : mb) << 20;
  ceiling_ = round_down_pow2(budget / sizeof(Bucket));
  ceiling_mask_ = ceiling_ - 1;
  buckets_ = std::min(ceiling_, kStartBytes / sizeof(Bucket));
  table_ = allocate(buckets_);
  if (!table_) throw std::bad_alloc();
}

TranspositionTable::TranspositionTable(const Config& config) {
  ceiling_ = round_up_pow2(config.buckets == 0 ? 1 : config.buckets);
  ceiling_mask_ = ceiling_ - 1;
  buckets_ = ceiling_;
  table_ = allocate(buckets_);
  if (!table_) throw std::bad_alloc();
}

// Heap arrays up to kHeapLimitBytes: malloc hands the same memory back to
// the next call's table without page faults. Above, one private mapping
// per size: glibc would keep a freed large array for reuse, and a search
// that doubles past it would hold both. A doubling's reinsertion spreads
// its entries over every page of the new array, so the mapping is
// populated up front: one call faults the whole array in, instead of one
// trap per page.
TranspositionTable::Array TranspositionTable::allocate(std::size_t buckets) {
  const std::size_t bytes = buckets * sizeof(Bucket);
  void* p = nullptr;
  if (bytes <= kHeapLimitBytes) {
    p = std::calloc(buckets, sizeof(Bucket));
  } else {
    int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;
#endif
    p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1, 0);
    if (p == MAP_FAILED) p = nullptr;
  }
  return Array(static_cast<Bucket*>(p), Release{buckets});
}

void TranspositionTable::Release::operator()(Bucket* p) const {
  const std::size_t bytes = buckets * sizeof(Bucket);
  if (bytes <= kHeapLimitBytes) {
    std::free(p);
  } else {
    munmap(p, bytes);
  }
}

bool TranspositionTable::check_and_insert(std::uint64_t hash,
                                          std::int32_t depth) {
  // Remix before reducing: Pprm::hash()'s low bits also drive other
  // consumers' bucketing.
  const std::uint64_t mix = splitmix64(hash);
  const std::uint8_t gen = generation_;
  const std::size_t mask = buckets_ - 1;

  // Walk from the home bucket over the entries of this key's ceiling
  // bucket (others' spills are skipped) until a free slot, or until all
  // kBucketEntries of them have been seen. At the ceiling that is the home
  // bucket alone. Along the way pick the entry the ceiling array would
  // evict: the oldest generation (wraparound-safe: how many generations
  // ago it was written), then the deepest, then the lowest slot.
  const auto victim_rank = [gen](const Entry& e) {
    return std::tuple(static_cast<std::uint8_t>(gen - e.gen), e.depth,
                      -int{e.slot});
  };
  Entry* free = nullptr;
  Entry* victim = nullptr;
  int seen = 0;
  for (std::size_t b = mix & mask; free == nullptr && seen < kBucketEntries;
       b = (b + 1) & mask) {
    for (Entry& e : table_[b].entries) {
      if (e.depth == 0) {
        free = &e;  // slots fill in order: the rest of the bucket is free
        break;
      }
      if (((e.mix ^ mix) & ceiling_mask_) != 0) continue;
      if (e.mix == mix) {
        if (e.gen == gen) {
          if (e.depth <= depth) {
            // Re-visit at the same or a deeper depth: redundant, prune. A
            // *shallower* rediscovery falls through to the overwrite
            // below — the fix tests/test_tt_replacement pins (the pruned
            // path could be the better one).
            ++counters_.hits;
            return true;
          }
        } else {
          // A previous pass's entry: refresh instead of pruning, so a
          // table shared across the ID ladder / refinement passes never
          // suppresses the new pass's exploration.
          e.gen = gen;
        }
        e.depth = depth;
        return false;
      }
      if (victim == nullptr || victim_rank(e) > victim_rank(*victim)) {
        victim = &e;
      }
      if (++seen == kBucketEntries) break;
    }
  }

  ++counters_.inserts;
  if (free == nullptr) {
    *victim = Entry{mix, depth, gen, victim->slot};
    ++counters_.evictions;
    return false;
  }
  *free = Entry{mix, depth, gen, static_cast<std::uint8_t>(seen)};
  ++counters_.entries;
  if (buckets_ < ceiling_ &&
      counters_.entries * 2 >
          static_cast<std::uint64_t>(buckets_) * kBucketEntries) {
    grow();
  }
  return false;
}

void TranspositionTable::grow() {
  const std::size_t size = buckets_ * 2;
  Array to = allocate(size);
  if (!to) {
    // Refused: keep this size and evict per bucket from now on.
    ceiling_ = buckets_;
    ceiling_mask_ = 0;
    return;
  }
  // Reinsert every entry at the first free slot from its new home, which
  // keeps the walk invariant (a lookup meets its entries before any free
  // slot). At the ceiling each ceiling bucket is its own home and holds at
  // most kBucketEntries entries, so every entry goes to its own slot and
  // the array is the one a table built there would hold.
  const std::size_t mask = size - 1;
  for (std::size_t b = 0; b < buckets_; ++b) {
    for (const Entry& e : table_[b].entries) {
      if (e.depth == 0) break;
      if (size == ceiling_) {
        to[e.mix & mask].entries[e.slot] = e;
        continue;
      }
      for (std::size_t d = e.mix & mask;; d = (d + 1) & mask) {
        Entry* slot = std::find_if(
            std::begin(to[d].entries), std::end(to[d].entries),
            [](const Entry& x) { return x.depth == 0; });
        if (slot != std::end(to[d].entries)) {
          *slot = e;
          break;
        }
      }
    }
  }
  table_ = std::move(to);
  buckets_ = size;
}

}  // namespace rmrls
