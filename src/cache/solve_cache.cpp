#include "cache/solve_cache.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace sharedres::cache {

namespace detail {

/// One cached key. The shard lock protects map/LRU membership; the entry's
/// own mutex protects only state/value, so producers and waiters never
/// contend with acquire().
struct Entry {
  enum class State { kPending, kReady, kAbandoned };

  std::vector<std::uint8_t> key;
  Hash128 hash;

  std::mutex mutex;
  std::condition_variable cv;
  State state = State::kPending;
  CacheValue value;
};

}  // namespace detail

namespace {

using detail::Entry;

/// A shard's recency order; front = least recently used.
using Lru = std::list<std::shared_ptr<Entry>>;

/// Resident-footprint estimate used for the bytes gauge: the serialized key
/// plus the fixed per-entry overhead. Value bytes are accounted separately
/// at fill() time (a monotone counter), because values arrive on worker
/// threads after eviction decisions were already made.
std::int64_t entry_bytes(const Entry& entry) {
  return static_cast<std::int64_t>(sizeof(Entry) + entry.key.size());
}

std::uint64_t value_bytes(const CacheValue& value) {
  std::uint64_t bytes = sizeof(CacheValue);
  if (value.schedule) bytes += value.schedule->storage_bytes();
  return bytes;
}

}  // namespace

struct SolveCache::Impl {
  struct Shard {
    std::mutex mutex;
    /// hash.lo → the LRU positions of the entries whose hash collides in the
    /// fast lane; the scan verifies the full 128-bit hash and then the key
    /// bytes. Holding the position here makes a hit's LRU refresh one
    /// splice, and keeps it out of Entry, whose size the resident-bytes
    /// gauge counts.
    std::unordered_map<std::uint64_t, std::vector<Lru::iterator>> map;
    Lru lru;
    std::size_t capacity = 1;
  };

  std::vector<Shard> shards;

  // Counters live here (not per shard) so stats() is one pass; they are
  // atomics because fill/abandon accounting arrives from worker threads.
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> abandoned{0};
  std::atomic<std::uint64_t> value_bytes{0};
  std::atomic<std::int64_t> resident_bytes{0};
  std::atomic<std::uint64_t> resident_entries{0};
};

SolveCache::SolveCache(const Config& config) : impl_(new Impl) {
  const std::size_t capacity = config.capacity == 0 ? 1 : config.capacity;
  std::size_t shards = config.shards == 0 ? 1 : config.shards;
  if (shards > capacity) shards = capacity;
  impl_->shards = std::vector<Impl::Shard>(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    impl_->shards[s].capacity = capacity / shards + (s < capacity % shards);
  }
}

SolveCache::~SolveCache() = default;

std::size_t SolveCache::shard_count() const { return impl_->shards.size(); }

SolveCache::Handle SolveCache::acquire(const CanonicalForm& form) {
  Impl::Shard& shard =
      impl_->shards[form.hash.hi % impl_->shards.size()];
  const std::lock_guard<std::mutex> lock(shard.mutex);

  auto& bucket = shard.map[form.hash.lo];
  for (const Lru::iterator pos : bucket) {
    const std::shared_ptr<Entry>& entry = *pos;
    if (entry->hash == form.hash && entry->key == form.key) {
      // Hit (any state — pending coalesces, abandoned short-circuits to the
      // local-solve fallback). Refresh LRU position.
      shard.lru.splice(shard.lru.end(), shard.lru, pos);
      impl_->hits.fetch_add(1, std::memory_order_relaxed);
      return Handle(entry, /*hit=*/true, this);
    }
  }

  auto entry = std::make_shared<Entry>();
  entry->key = form.key;
  entry->hash = form.hash;
  bucket.push_back(shard.lru.insert(shard.lru.end(), entry));
  impl_->misses.fetch_add(1, std::memory_order_relaxed);
  impl_->resident_bytes.fetch_add(entry_bytes(*entry),
                                  std::memory_order_relaxed);
  impl_->resident_entries.fetch_add(1, std::memory_order_relaxed);

  while (shard.lru.size() > shard.capacity) {
    // Every resident entry's position is in its bucket.
    const Lru::iterator victim = shard.lru.begin();
    const auto victim_bucket = shard.map.find((*victim)->hash.lo);
    auto& positions = victim_bucket->second;
    positions.erase(std::find(positions.begin(), positions.end(), victim));
    if (positions.empty()) shard.map.erase(victim_bucket);
    impl_->evictions.fetch_add(1, std::memory_order_relaxed);
    impl_->resident_bytes.fetch_sub(entry_bytes(**victim),
                                    std::memory_order_relaxed);
    impl_->resident_entries.fetch_sub(1, std::memory_order_relaxed);
    // In-flight handles still pin the victim via shared_ptr: a pending
    // producer fills it and its waiters are served, it just is not findable
    // for later acquires.
    shard.lru.pop_front();
  }

  return Handle(entry, /*hit=*/false, this);
}

SolveCache::Stats SolveCache::stats() const {
  Stats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.inserts = s.misses;
  s.evictions = impl_->evictions.load(std::memory_order_relaxed);
  s.abandoned = impl_->abandoned.load(std::memory_order_relaxed);
  s.value_bytes = impl_->value_bytes.load(std::memory_order_relaxed);
  s.resident_bytes = impl_->resident_bytes.load(std::memory_order_relaxed);
  s.resident_entries = static_cast<std::size_t>(
      impl_->resident_entries.load(std::memory_order_relaxed));
  return s;
}

void SolveCache::export_metrics(obs::Registry& registry) const {
  const Stats s = stats();
  registry.counter("cache.hits").add(s.hits);
  registry.counter("cache.misses").add(s.misses);
  registry.counter("cache.inserts").add(s.inserts);
  registry.counter("cache.evictions").add(s.evictions);
  registry.counter("cache.abandoned").add(s.abandoned);
  registry.counter("cache.value_bytes").add(s.value_bytes);
  registry.gauge("cache.resident_bytes").add(s.resident_bytes);
  registry.gauge("cache.resident_entries")
      .add(static_cast<std::int64_t>(s.resident_entries));
}

SolveCache::Handle::Handle(std::shared_ptr<detail::Entry> entry, bool hit,
                           SolveCache* owner)
    : entry_(std::move(entry)), hit_(hit), owner_(owner) {}

SolveCache::Handle::Handle(Handle&& other) noexcept
    : entry_(std::move(other.entry_)),
      hit_(other.hit_),
      filled_(other.filled_),
      owner_(other.owner_) {
  other.entry_.reset();
  other.owner_ = nullptr;
}

SolveCache::Handle& SolveCache::Handle::operator=(Handle&& other) noexcept {
  if (this != &other) {
    // Release the current entry with producer semantics before adopting.
    Handle tmp(std::move(*this));
    (void)tmp;
    entry_ = std::move(other.entry_);
    hit_ = other.hit_;
    filled_ = other.filled_;
    owner_ = other.owner_;
    other.entry_.reset();
    other.owner_ = nullptr;
  }
  return *this;
}

SolveCache::Handle::~Handle() {
  if (entry_ && !hit_ && !filled_) {
    {
      const std::lock_guard<std::mutex> lock(entry_->mutex);
      entry_->state = Entry::State::kAbandoned;
    }
    entry_->cv.notify_all();
    if (owner_ != nullptr) {
      owner_->impl_->abandoned.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void SolveCache::Handle::fill(CacheValue value) {
  if (owner_ != nullptr) {
    owner_->impl_->value_bytes.fetch_add(value_bytes(value),
                                         std::memory_order_relaxed);
  }
  {
    const std::lock_guard<std::mutex> lock(entry_->mutex);
    entry_->value = std::move(value);
    entry_->state = Entry::State::kReady;
  }
  entry_->cv.notify_all();
  filled_ = true;
}

const CacheValue* SolveCache::Handle::wait() const {
  std::unique_lock<std::mutex> lock(entry_->mutex);
  entry_->cv.wait(lock,
                  [&] { return entry_->state != Entry::State::kPending; });
  return entry_->state == Entry::State::kReady ? &entry_->value : nullptr;
}

}  // namespace sharedres::cache
