#ifndef XPE_AXES_ARENA_H_
#define XPE_AXES_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace xpe {

/// One key of a NodeTable: where the key's row sits in the table's id
/// buffer. It describes a row only while `stamp` equals the stamp of the
/// table holding the slot array; any other stamp reads as "no row".
struct KeySlot {
  uint64_t offset = 0;
  uint32_t size = 0;
  uint32_t stamp = 0;
};

/// A monotonic bump allocator for evaluation-lifetime table storage.
/// Allocations are never freed individually; Reset() recycles the whole
/// arena while *retaining* its blocks, so an evaluator session that is
/// reused across calls stops allocating once the arena has grown to the
/// peak working-set of its query/document mix. Engines put their
/// context-value tables here (see NodeTable); short-lived inner-loop
/// scratch belongs in the EvalWorkspace pools instead, which reclaim
/// capacity immediately.
///
/// Besides the blocks, the arena keeps a pool of generation-stamped
/// KeySlot arrays, the key columns of NodeTables. A table's key space is
/// as large as the document, so writing it out on every table set-up
/// would cost O(|D|) per table however few rows the table holds. A
/// pooled array instead comes with a fresh stamp that none of its slots
/// carries, which empties it in O(1). Stamp 0 is never handed out, fresh
/// arrays start zeroed, and an array whose stamp wraps is zeroed again,
/// so a slot read holds zeros or what a table wrote, and no stale slot
/// ever matches.
///
/// Not thread-safe: one arena belongs to one evaluation session.
class EvalArena {
 public:
  EvalArena() = default;
  EvalArena(const EvalArena&) = delete;
  EvalArena& operator=(const EvalArena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `align` (a power
  /// of two ≤ alignof(std::max_align_t)). Valid until Reset().
  void* Allocate(size_t bytes, size_t align);

  /// A pooled array of at least `num_keys` KeySlots and the stamp that
  /// marks the slots its holder writes; no slot carries that stamp yet.
  /// Valid until Reset(), which returns every array to the pool. O(1)
  /// unless the pool must grow.
  struct KeySlots {
    KeySlot* slots;
    uint32_t stamp;
  };
  KeySlots AcquireKeySlots(uint32_t num_keys);

  /// Grows the *most recent* allocation in place when it still sits at
  /// the bump cursor and the block has room; returns false otherwise
  /// (the caller then Allocates fresh storage and copies). This is what
  /// makes ArenaVector growth cheap in the common one-writer case.
  bool TryExtend(const void* ptr, size_t old_bytes, size_t new_bytes);

  /// Recycles the arena: all previous allocations and key-slot arrays
  /// become invalid, all blocks and arrays are retained for reuse. O(1).
  void Reset();

  /// Bytes handed out since the last Reset() (incl. alignment padding),
  /// counting `num_keys` slots for each acquired key-slot array.
  size_t bytes_used() const { return bytes_used_; }
  /// Total capacity of all retained blocks and key-slot arrays.
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// High-water mark of bytes_used() across the arena's whole lifetime:
  /// the real-memory footprint a reused session converges to.
  size_t bytes_peak() const { return bytes_peak_; }
  /// Number of malloc-level block and key-slot array allocations ever
  /// performed. A reused session's steady state keeps this constant
  /// across calls.
  uint64_t block_allocations() const { return block_allocations_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
  };
  struct FreeSlots {
    void operator()(KeySlot* slots) const { std::free(slots); }
  };
  struct SlotArray {
    std::unique_ptr<KeySlot[], FreeSlots> slots;
    uint32_t capacity = 0;
    uint32_t stamp = 0;  // the last stamp handed out with this array
  };

  /// Makes `blocks_[active_]` (growing it if needed) able to serve
  /// `bytes` from a fresh cursor.
  void NewBlock(size_t bytes);
  void CountUsed(size_t bytes) {
    bytes_used_ += bytes;
    if (bytes_used_ > bytes_peak_) bytes_peak_ = bytes_used_;
  }

  static constexpr size_t kMinBlockBytes = 1 << 12;

  std::vector<Block> blocks_;
  size_t active_ = 0;  // block currently bump-allocated from
  size_t cursor_ = 0;  // offset of the next free byte in blocks_[active_]
  std::vector<SlotArray> slot_arrays_;
  size_t slot_arrays_used_ = 0;  // arrays acquired since the last Reset()
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  size_t bytes_peak_ = 0;
  uint64_t block_allocations_ = 0;
};

/// A std::vector-shaped growable array of trivially copyable elements
/// whose storage lives in an EvalArena. Superseded capacity is abandoned
/// to the arena (monotonic), so use it for buffers that live until the
/// end of the evaluation — NodeTable is the main client.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  ArenaVector() = default;
  explicit ArenaVector(EvalArena* arena) : arena_(arena) {}

  // Move-only: a copy would alias the arena-backed buffer, and a later
  // push_back through either alias would corrupt the other.
  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;
  ArenaVector(ArenaVector&& other) noexcept { *this = std::move(other); }
  ArenaVector& operator=(ArenaVector&& other) noexcept {
    arena_ = other.arena_;
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
    return *this;
  }

  /// Rebinds to `arena` and empties the vector (storage is abandoned).
  void Reset(EvalArena* arena) {
    arena_ = arena;
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

  void push_back(T v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = v;
  }
  void append(const T* src, size_t n) {
    if (n == 0) return;  // keeps memcpy away from null empty-span data()
    if (size_ + n > capacity_) Grow(size_ + n);
    std::memcpy(data_ + size_, src, n * sizeof(T));
    size_ += n;
  }
  void resize(size_t n, T fill) {
    if (n > capacity_) Grow(n);
    for (size_t i = size_; i < n; ++i) data_[i] = fill;
    size_ = n;
  }
  void clear() { size_ = 0; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }

 private:
  void Grow(size_t need) {
    size_t new_cap = capacity_ == 0 ? 16 : capacity_ * 2;
    if (new_cap < need) new_cap = need;
    if (capacity_ > 0 && arena_->TryExtend(data_, capacity_ * sizeof(T),
                                           new_cap * sizeof(T))) {
      capacity_ = new_cap;
      return;
    }
    T* fresh =
        static_cast<T*>(arena_->Allocate(new_cap * sizeof(T), alignof(T)));
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    capacity_ = new_cap;
  }

  EvalArena* arena_ = nullptr;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace xpe

#endif  // XPE_AXES_ARENA_H_
