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
  stripe_mask_ = std::min(buckets, kStripes) - 1;
}

bool TranspositionTable::check_and_insert(std::uint64_t hash,
                                          std::int32_t depth,
                                          std::uint8_t owner,
                                          bool own_only) {
  // Remix before reducing: Pprm::hash()'s low bits also drive other
  // consumers' bucketing.
  const std::uint64_t mix = splitmix64(hash);
  const std::uint8_t gen = generation_.load(std::memory_order_relaxed);
  Stripe& stripe = stripe_of(mix);
  std::unique_lock<std::mutex> lock(stripe.m);
  const std::size_t size = buckets_;
  Entry* entries = table_[static_cast<std::size_t>(mix) & (size - 1)].entries;

  Entry* empty = nullptr;
  for (int i = 0; i < kBucketEntries; ++i) {
    Entry& e = entries[i];
    if (e.depth == 0) {
      if (empty == nullptr) empty = &e;
      continue;
    }
    if (e.hash != hash) continue;
    if (e.gen == gen) {
      if (own_only && e.owner != owner) {
        // A peer's claim. An own_only searcher (lazy SMP's canonical
        // worker) must keep exactly the sequential engine's coverage, so
        // a foreign claim never prunes it — it takes the claim over and
        // re-expands. The peer revisiting afterwards prunes on this
        // entry like any other, so the subtree is still expanded at most
        // once per searcher that reached it first.
        e.owner = owner;
        e.depth = depth;
        return false;
      }
      if (e.depth <= depth) {
        // Re-visit at the same or a deeper depth: redundant, prune. A
        // *shallower* rediscovery falls through to the overwrite below —
        // the fix tests/test_tt_replacement pins (the pruned path could
        // be the better one).
        ++stripe.hits;
        return true;
      }
      e.depth = depth;
      e.owner = owner;
      return false;
    }
    // A previous pass's entry: refresh instead of pruning, so a table
    // shared across the ID ladder / refinement passes never suppresses
    // the new pass's exploration.
    e.gen = gen;
    e.depth = depth;
    e.owner = owner;
    return false;
  }

  if (empty != nullptr) {
    empty->hash = hash;
    empty->depth = depth;
    empty->gen = gen;
    empty->owner = owner;
    ++stripe.inserts;
    ++stripe.occupied;
    return false;
  }

  // Bucket full. A table built at the ceiling could still have room, so
  // below the ceiling grow and look again; only a table at its ceiling
  // evicts: the entry from the oldest generation, the deepest among
  // equals. The age is wraparound-safe: how many generations ago the
  // entry was written.
  if (size < ceiling_) {
    lock.unlock();
    grow(size);
    return check_and_insert(hash, depth, owner, own_only);
  }
  Entry* victim = &entries[0];
  for (int i = 1; i < kBucketEntries; ++i) {
    const auto age_v = static_cast<std::uint8_t>(gen - victim->gen);
    const auto age_i = static_cast<std::uint8_t>(gen - entries[i].gen);
    if (age_i > age_v || (age_i == age_v && entries[i].depth > victim->depth)) {
      victim = &entries[i];
    }
  }
  victim->hash = hash;
  victim->depth = depth;
  victim->gen = gen;
  victim->owner = owner;
  ++stripe.inserts;
  ++stripe.evictions;
  return false;
}

void TranspositionTable::grow(std::size_t seen) {
  // Index order; a lookup holds at most one stripe, so no cycle can form.
  std::array<std::unique_lock<std::mutex>, kStripes> held;
  for (std::size_t i = 0; i < kStripes; ++i) {
    held[i] = std::unique_lock<std::mutex>(stripes_[i].m);
  }
  const std::size_t old = buckets_;
  // A peer may have grown the table first, or growth may have stopped.
  if (old != seen || old == ceiling_) return;

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

std::uint64_t TranspositionTable::capacity() const {
  const std::lock_guard<std::mutex> lock(stripes_[0].m);
  return static_cast<std::uint64_t>(ceiling_) * kBucketEntries;
}

std::size_t TranspositionTable::bytes() const {
  const std::lock_guard<std::mutex> lock(stripes_[0].m);
  return buckets_ * sizeof(Bucket);
}

void TranspositionTable::new_generation() {
  generation_.fetch_add(1, std::memory_order_relaxed);
}

std::uint8_t TranspositionTable::generation() const {
  return generation_.load(std::memory_order_relaxed);
}

TranspositionTable::Snapshot TranspositionTable::snapshot() const {
  Snapshot s;
  for (std::size_t i = 0; i < kStripes; ++i) {
    const Stripe& stripe = stripes_[i];
    const std::lock_guard<std::mutex> lock(stripe.m);
    s.hits += stripe.hits;
    s.inserts += stripe.inserts;
    s.evictions += stripe.evictions;
    s.entries += stripe.occupied;
    s.stripe_hits[i] = stripe.hits;
  }
  return s;
}

}  // namespace rmrls
