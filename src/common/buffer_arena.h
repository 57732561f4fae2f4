// BufferArena: a reusable workspace pool for the host execution substrate.
//
// The paper's fusion argument is that intermediates must stay out of slow
// memory AND out of allocator round-trips. The functional staged kernels
// used to re-allocate every per-chunk buffer and every gathered output on
// every run; at benchmark sizes those are multi-hundred-KB allocations that
// glibc serves with mmap/munmap, so every run paid page faults over the
// whole working set. BufferArena keeps workspace objects alive between runs:
// `Acquire<T>()` hands out a pooled instance whose internal vectors retain
// their heap capacity, and the RAII handle returns it on destruction. A warm
// acquire/release cycle performs no heap allocation.
//
// Pools are keyed by type; any default-constructible type can be pooled. If
// the type exposes `std::size_t CapacityBytes() const` (the heap bytes its
// buffers hold), each hit adds it to the process-wide HostPerfCounters
// (hostperf.arena_reused_bytes); a type without one counts no bytes.
//
// Thread safety: all arena operations take a short internal lock (locking
// does not allocate). For uncontended steady state, use one arena per thread:
// the fused pipeline takes its scratch from the calling thread's
// `ThreadLocal()` arena, so each scheduler worker keeps its own warm pool.
//
// Pooled memory held by static/thread-local arenas at process exit is still
// reachable, so LeakSanitizer does not flag it.
#ifndef KF_COMMON_BUFFER_ARENA_H_
#define KF_COMMON_BUFFER_ARENA_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <typeindex>
#include <utility>
#include <vector>

namespace kf {

// Process-wide, lock-free counters for the host-performance substrate.
// Updated from hot paths with relaxed atomics; no run records them. The bench
// harness snapshots them into `hostperf.*` gauges when it writes its JSON
// (bench/bench_util.h).
struct HostPerfCounters {
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> pool_misses{0};
  std::atomic<std::uint64_t> arena_reused_bytes{0};
  // Fused-pipeline SELECT members run as typed column programs because
  // CompilePredicate could not lower them onto an int32 kernel...
  std::atomic<std::uint64_t> fallback_predicates{0};
  // ...and members run on a typed (vectorizable) predicate kernel.
  std::atomic<std::uint64_t> typed_predicates{0};

  static HostPerfCounters& Global();
};

namespace internal {
template <typename T, typename = void>
struct HasCapacityBytes : std::false_type {};
template <typename T>
struct HasCapacityBytes<
    T, std::void_t<decltype(std::declval<const T&>().CapacityBytes())>>
    : std::true_type {};
}  // namespace internal

class BufferArena {
 public:
  BufferArena() = default;
  ~BufferArena() = default;
  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  // RAII checkout of a pooled T. Returns the object to the arena on
  // destruction; the arena must outlive the handle.
  template <typename T>
  class Handle {
   public:
    Handle(std::unique_ptr<T> object, BufferArena* arena)
        : object_(std::move(object)), arena_(arena) {}
    Handle(Handle&&) noexcept = default;
    Handle& operator=(Handle&&) noexcept = default;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() {
      if (object_ != nullptr && arena_ != nullptr) {
        arena_->Release<T>(std::move(object_));
      }
    }

    T& operator*() const { return *object_; }
    T* operator->() const { return object_.get(); }
    T* get() const { return object_.get(); }

   private:
    std::unique_ptr<T> object_;
    BufferArena* arena_;
  };

  // Pooled instance of T (default-constructed on a pool miss). Warm path:
  // one lock + pop_back, no allocation.
  template <typename T>
  Handle<T> Acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = pools_.find(std::type_index(typeid(T)));
      if (it != pools_.end() && !it->second.empty()) {
        Entry entry = std::move(it->second.back());
        it->second.pop_back();
        RecordHit(entry.capacity_bytes);
        return Handle<T>(
            std::unique_ptr<T>(static_cast<T*>(entry.object.release())),
            this);
      }
    }
    RecordMiss();
    return Handle<T>(std::make_unique<T>(), this);
  }

  // Returns an object to the pool (normally via ~Handle). Capacity is
  // retained so the next Acquire reuses it.
  template <typename T>
  void Release(std::unique_ptr<T> object) {
    Entry entry;
    entry.capacity_bytes = CapacityOf(*object);
    entry.object = ErasedPtr(object.release(), [](void* p) {
      delete static_cast<T*>(p);
    });
    std::lock_guard<std::mutex> lock(mutex_);
    pools_[std::type_index(typeid(T))].push_back(std::move(entry));
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t reused_bytes = 0;
    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };
  Stats stats() const {
    return Stats{hits_.load(std::memory_order_relaxed),
                 misses_.load(std::memory_order_relaxed),
                 reused_bytes_.load(std::memory_order_relaxed)};
  }

  // Number of idle pooled objects across all types (tests).
  std::size_t pooled_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [type, pool] : pools_) n += pool.size();
    return n;
  }

  // Drops all idle pooled objects (capacity released to the allocator).
  void Trim() {
    std::lock_guard<std::mutex> lock(mutex_);
    pools_.clear();
  }

  // Per-thread scratch arena. Destroyed (and its capacity returned) when the
  // thread exits.
  static BufferArena& ThreadLocal();

 private:
  using ErasedPtr = std::unique_ptr<void, void (*)(void*)>;
  struct Entry {
    ErasedPtr object{nullptr, [](void*) {}};
    std::size_t capacity_bytes = 0;
  };

  template <typename T>
  static std::size_t CapacityOf(const T& object) {
    if constexpr (internal::HasCapacityBytes<T>::value) {
      return object.CapacityBytes();
    } else {
      return 0;
    }
  }

  void RecordHit(std::size_t reused_bytes) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    reused_bytes_.fetch_add(reused_bytes, std::memory_order_relaxed);
    auto& global = HostPerfCounters::Global();
    global.pool_hits.fetch_add(1, std::memory_order_relaxed);
    global.arena_reused_bytes.fetch_add(reused_bytes,
                                        std::memory_order_relaxed);
  }
  void RecordMiss() {
    misses_.fetch_add(1, std::memory_order_relaxed);
    HostPerfCounters::Global().pool_misses.fetch_add(
        1, std::memory_order_relaxed);
  }

  mutable std::mutex mutex_;
  std::map<std::type_index, std::vector<Entry>> pools_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> reused_bytes_{0};
};

}  // namespace kf

#endif  // KF_COMMON_BUFFER_ARENA_H_
