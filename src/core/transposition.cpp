#include "core/transposition.hpp"

#include <algorithm>
#include <new>

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
  init(std::min(ceiling_, kStartBytes / sizeof(Bucket)));
}

TranspositionTable::TranspositionTable(const Config& config) {
  ceiling_ = round_up_pow2(config.buckets == 0 ? 1 : config.buckets);
  init(ceiling_);
}

void TranspositionTable::init(std::size_t buckets) {
  table_.reset(static_cast<Bucket*>(std::calloc(buckets, sizeof(Bucket))));
  if (!table_) throw std::bad_alloc();
  buckets_ = buckets;
  allocated_ = buckets;
}

bool TranspositionTable::check_and_insert(std::uint64_t hash,
                                          std::int32_t depth) {
  // Remix before reducing: Pprm::hash()'s low bits also drive other
  // consumers' bucketing.
  const std::uint64_t mix = splitmix64(hash);
  const std::uint8_t gen = generation_;
  Entry* entries =
      table_[static_cast<std::size_t>(mix) & (buckets_ - 1)].entries;

  Entry* empty = nullptr;
  for (int i = 0; i < kBucketEntries; ++i) {
    Entry& e = entries[i];
    if (e.depth == 0) {
      if (empty == nullptr) empty = &e;
      continue;
    }
    if (e.hash != hash) continue;
    if (e.gen == gen) {
      if (e.depth <= depth) {
        // Re-visit at the same or a deeper depth: redundant, prune. A
        // *shallower* rediscovery falls through to the overwrite below —
        // the fix tests/test_tt_replacement pins (the pruned path could
        // be the better one).
        ++counters_.hits;
        return true;
      }
      e.depth = depth;
      return false;
    }
    // A previous pass's entry: refresh instead of pruning, so a table
    // shared across the ID ladder / refinement passes never suppresses
    // the new pass's exploration.
    e.gen = gen;
    e.depth = depth;
    return false;
  }

  if (empty != nullptr) {
    *empty = Entry{hash, depth, gen};
    ++counters_.inserts;
    ++counters_.entries;
    return false;
  }

  // Bucket full. A table built at the ceiling could still have room, so
  // below the ceiling grow and look again; only a table at its ceiling
  // evicts: the entry from the oldest generation, the deepest among
  // equals. The age is wraparound-safe: how many generations ago the
  // entry was written.
  if (buckets_ < ceiling_) {
    grow();
    return check_and_insert(hash, depth);
  }
  Entry* victim = &entries[0];
  for (int i = 1; i < kBucketEntries; ++i) {
    const auto age_v = static_cast<std::uint8_t>(gen - victim->gen);
    const auto age_i = static_cast<std::uint8_t>(gen - entries[i].gen);
    if (age_i > age_v || (age_i == age_v && entries[i].depth > victim->depth)) {
      victim = &entries[i];
    }
  }
  *victim = Entry{hash, depth, gen};
  ++counters_.inserts;
  ++counters_.evictions;
  return false;
}

void TranspositionTable::grow() {
  const std::size_t old = buckets_;
  Bucket* const from = table_.get();
  Bucket* to = from;
  if (old * 2 > allocated_) {
    // Heap tables double into a fresh heap array; the first size past
    // kHeapLimitBytes takes the whole budget, inside which every later
    // doubling happens in place.
    const std::size_t want =
        old * 2 * sizeof(Bucket) <= kHeapLimitBytes ? old * 2 : ceiling_;
    to = static_cast<Bucket*>(std::calloc(want, sizeof(Bucket)));
    if (to == nullptr) {
      ceiling_ = old;  // refused: keep this size and evict from now on
      return;
    }
    allocated_ = want;
  }
  // Stable split of bucket b into b and b + old by the new index bit: both
  // keep their entries' slot order, which is what a table built at the
  // doubled size would hold. Bucket b + old is still zero (a fresh calloc,
  // or budget the table has not reached yet), and only slots that held an
  // entry are written, so empty buckets stay untouched.
  for (std::size_t b = 0; b < old; ++b) {
    const Bucket src = from[b];
    Entry* lo = to[b].entries;
    Entry* hi = to[b + old].entries;
    int nlo = 0;
    int nhi = 0;
    for (const Entry& e : src.entries) {
      if (e.depth == 0) continue;
      if ((splitmix64(e.hash) & old) != 0) {
        hi[nhi++] = e;
      } else {
        lo[nlo++] = e;
      }
    }
    for (int i = nlo; i < kBucketEntries; ++i) {
      if (src.entries[i].depth != 0) lo[i] = Entry{};
    }
  }
  if (to != from) table_.reset(to);
  buckets_ = old * 2;
}

}  // namespace rmrls
