// Per-slot storage that never moves.
//
// A `slab<T>` holds `width` elements of T for each of a growing number of
// slots.  Slots live in blocks of `k_block_slots` that are never
// reallocated, so adding a slot neither copies nor frees what earlier slots
// hold: a table of thousands of slots stays resident at the size its slots
// use (a doubling std::vector leaves its freed copies behind in the
// allocator), and a slot's row never changes address.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace fallsense::util {

template <class T>
class slab {
public:
    explicit slab(std::size_t width) : width_(width) {}

    /// Append one value-initialised slot.
    void grow() {
        if (slots_ % k_block_slots == 0) {
            blocks_.push_back(std::make_unique<T[]>(k_block_slots * width_));
        }
        ++slots_;
    }

    std::size_t slots() const { return slots_; }
    std::size_t width() const { return width_; }

    /// The `width` elements of `slot` (which must be below slots()).
    T* row(std::size_t slot) {
        return blocks_[slot / k_block_slots].get() + (slot % k_block_slots) * width_;
    }
    const T* row(std::size_t slot) const {
        return blocks_[slot / k_block_slots].get() + (slot % k_block_slots) * width_;
    }

private:
    static constexpr std::size_t k_block_slots = 32;

    std::size_t width_;
    std::size_t slots_ = 0;
    std::vector<std::unique_ptr<T[]>> blocks_;
};

}  // namespace fallsense::util
