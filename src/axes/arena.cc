#include "src/axes/arena.h"

#include <algorithm>
#include <new>

namespace xpe {

namespace {

inline size_t AlignUp(size_t v, size_t align) {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

void* EvalArena::Allocate(size_t bytes, size_t align) {
  if (bytes == 0) bytes = 1;  // distinct non-null result keeps callers simple
  if (active_ < blocks_.size()) {
    const size_t at = AlignUp(cursor_, align);
    if (at + bytes <= blocks_[active_].capacity) {
      cursor_ = at + bytes;
      CountUsed(bytes);
      return blocks_[active_].data.get() + at;
    }
  }
  NewBlock(bytes);
  // Block starts are max_align-aligned, so cursor 0 satisfies any align.
  cursor_ = bytes;
  CountUsed(bytes);
  return blocks_[active_].data.get();
}

bool EvalArena::TryExtend(const void* ptr, size_t old_bytes,
                          size_t new_bytes) {
  if (active_ >= blocks_.size() || new_bytes < old_bytes) return false;
  Block& block = blocks_[active_];
  // Guard before the pointer arithmetic: cursor_ - old_bytes may refer to
  // a previous block when a fresh block was opened since `ptr`.
  if (cursor_ < old_bytes) return false;
  const size_t offset = cursor_ - old_bytes;
  if (block.data.get() + offset != ptr) return false;
  if (offset + new_bytes > block.capacity) return false;
  cursor_ = offset + new_bytes;
  CountUsed(new_bytes - old_bytes);
  return true;
}

EvalArena::KeySlots EvalArena::AcquireKeySlots(uint32_t num_keys) {
  if (slot_arrays_used_ == slot_arrays_.size()) slot_arrays_.emplace_back();
  SlotArray& array = slot_arrays_[slot_arrays_used_++];
  if (array.capacity < num_keys) {
    // calloc, not new[]: the slots must start zeroed (stamp 0 matches no
    // holder), and a large array then arrives as untouched zero pages.
    auto* fresh =
        static_cast<KeySlot*>(std::calloc(num_keys, sizeof(KeySlot)));
    if (fresh == nullptr) throw std::bad_alloc();
    bytes_reserved_ += (size_t{num_keys} - array.capacity) * sizeof(KeySlot);
    ++block_allocations_;
    array.slots.reset(fresh);
    array.capacity = num_keys;
    array.stamp = 0;
  }
  if (++array.stamp == 0) {
    // Wrapped: a slot stamped 2^32 acquisitions ago would match again.
    std::fill_n(array.slots.get(), array.capacity, KeySlot{});
    array.stamp = 1;
  }
  CountUsed(size_t{num_keys} * sizeof(KeySlot));
  return {array.slots.get(), array.stamp};
}

void EvalArena::NewBlock(size_t bytes) {
  // Move to the next retained block that fits, growing geometrically when
  // none does. The skipped remainder of the current block is wasted until
  // Reset() — the price of monotonic allocation.
  while (++active_ < blocks_.size()) {
    if (blocks_[active_].capacity >= bytes) return;
  }
  size_t capacity = kMinBlockBytes;
  if (!blocks_.empty()) capacity = blocks_.back().capacity * 2;
  if (capacity < bytes) capacity = bytes;
  Block block;
  // Plain new[]: make_unique would value-initialize (memset) the block.
  block.data.reset(new std::byte[capacity]);
  block.capacity = capacity;
  bytes_reserved_ += capacity;
  ++block_allocations_;
  blocks_.push_back(std::move(block));
  active_ = blocks_.size() - 1;
}

void EvalArena::Reset() {
  active_ = 0;
  cursor_ = 0;
  slot_arrays_used_ = 0;
  bytes_used_ = 0;
}

}  // namespace xpe
