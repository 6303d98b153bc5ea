// Dense row-major float tensor.
//
// fallsense trains small models (tens of thousands of parameters) on CPU,
// so the tensor type favors clarity and safety over BLAS-grade performance:
// contiguous std::vector<float> storage, explicit shape, bounds-checked
// element access in debug-style accessors, and unchecked spans for kernels
// that have already validated shapes.
//
// Two allocation properties matter for the hot paths:
//
//   * Shapes never heap-allocate for real models: shape_t stores up to six
//     dimensions inline (the deepest layer in the repo is rank 4) and only
//     falls back to the heap beyond that.
//   * Tensor storage is recycled through a thread-local buffer pool: a
//     destroyed tensor donates its capacity, a constructed one reuses it.
//     Steady-state training steps — which create and drop activation and
//     gradient tensors every batch — therefore allocate nothing once warm.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace fallsense::nn {

/// Shape of a tensor: sizes per dimension, outermost first.  A small-size-
/// optimized sequence with the slice of std::vector's interface the layers
/// use; up to k_inline_rank dimensions live inline, so copying shapes on
/// the training path performs no heap allocation.
class shape_t {
public:
    using value_type = std::size_t;
    using iterator = std::size_t*;
    using const_iterator = const std::size_t*;

    shape_t() = default;

    /// Rank-`count` shape, zero-filled (deserialization fills it in).
    explicit shape_t(std::size_t count) {
        reserve_at_least(count);
        size_ = count;
        for (std::size_t i = 0; i < count; ++i) ptr_[i] = 0;
    }

    shape_t(std::initializer_list<std::size_t> dims) {
        reserve_at_least(dims.size());
        for (const std::size_t d : dims) ptr_[size_++] = d;
    }

    shape_t(const shape_t& other) { assign_from(other); }

    shape_t(shape_t&& other) noexcept { steal_from(other); }

    shape_t& operator=(const shape_t& other) {
        if (this != &other) {
            size_ = 0;
            assign_from(other);
        }
        return *this;
    }

    shape_t& operator=(shape_t&& other) noexcept {
        if (this != &other) {
            release_heap();
            steal_from(other);
        }
        return *this;
    }

    ~shape_t() { release_heap(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    std::size_t* data() { return ptr_; }
    const std::size_t* data() const { return ptr_; }

    std::size_t& operator[](std::size_t i) { return ptr_[i]; }
    std::size_t operator[](std::size_t i) const { return ptr_[i]; }

    std::size_t front() const { return ptr_[0]; }
    std::size_t back() const { return ptr_[size_ - 1]; }

    iterator begin() { return ptr_; }
    iterator end() { return ptr_ + size_; }
    const_iterator begin() const { return ptr_; }
    const_iterator end() const { return ptr_ + size_; }

    void clear() { size_ = 0; }

    void push_back(std::size_t d) {
        reserve_at_least(size_ + 1);
        ptr_[size_++] = d;
    }

    friend bool operator==(const shape_t& a, const shape_t& b) {
        if (a.size_ != b.size_) return false;
        for (std::size_t i = 0; i < a.size_; ++i) {
            if (a.ptr_[i] != b.ptr_[i]) return false;
        }
        return true;
    }
    friend bool operator!=(const shape_t& a, const shape_t& b) { return !(a == b); }

private:
    static constexpr std::size_t k_inline_rank = 6;

    void reserve_at_least(std::size_t count);
    void assign_from(const shape_t& other);
    void steal_from(shape_t& other) noexcept;
    void release_heap() {
        if (ptr_ != inline_) delete[] ptr_;
        ptr_ = inline_;
        capacity_ = k_inline_rank;
        size_ = 0;
    }

    std::size_t size_ = 0;
    std::size_t capacity_ = k_inline_rank;
    std::size_t* ptr_ = inline_;
    std::size_t inline_[k_inline_rank] = {};
};

/// "[2 x 20 x 9]" when streamed (gtest failure messages, model dumps).
std::ostream& operator<<(std::ostream& os, const shape_t& shape);

/// Number of elements a shape addresses (1 for the empty/scalar shape).
std::size_t shape_volume(const shape_t& shape);

/// "[2 x 20 x 9]" — used in error messages and model dumps.
std::string shape_to_string(const shape_t& shape);

class tensor {
public:
    /// Empty (rank-0, volume-1 is NOT implied — size() == 0).
    tensor() = default;

    /// Zero-filled tensor of the given shape.
    explicit tensor(shape_t shape);

    /// Tensor of the given shape with explicit contents (size must match).
    tensor(shape_t shape, std::vector<float> values);

    /// Copies recycle pooled capacity; moves transfer storage.  The
    /// destructor donates the buffer back to the thread-local pool, so
    /// temporaries on the training path cost no malloc once warm.
    tensor(const tensor& other);
    tensor(tensor&& other) noexcept = default;
    tensor& operator=(const tensor& other);
    tensor& operator=(tensor&& other) noexcept;
    ~tensor();

    static tensor zeros(shape_t shape) { return tensor(std::move(shape)); }
    static tensor full(shape_t shape, float value);
    /// 1-D tensor from an initializer list.
    static tensor from_values(std::initializer_list<float> values);

    const shape_t& shape() const { return shape_; }
    std::size_t rank() const { return shape_.size(); }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /// Size of dimension `dim`; throws if out of range.
    std::size_t dim(std::size_t d) const;

    std::span<float> values() { return data_; }
    std::span<const float> values() const { return data_; }
    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    /// Flat element access (bounds-checked).
    float& operator[](std::size_t i);
    float operator[](std::size_t i) const;

    /// Multi-index access (bounds-checked); index count must equal rank.
    float& at(std::initializer_list<std::size_t> idx);
    float at(std::initializer_list<std::size_t> idx) const;

    /// Flat offset of a multi-index (bounds-checked).
    std::size_t offset(std::initializer_list<std::size_t> idx) const;

    void fill(float value);
    /// Replace shape and contents in place, reusing existing capacity —
    /// once a tensor has grown to its high-water mark, repeated assigns
    /// perform no heap allocation (the serving hot path relies on this).
    /// `values.size()` must equal the volume of `new_shape`.
    void assign(const shape_t& new_shape, std::span<const float> values);
    /// Reinterpret the same data with a different shape (volume must match).
    tensor reshaped(shape_t new_shape) const;

    /// Elementwise in-place ops (shapes must match exactly).
    tensor& operator+=(const tensor& other);
    tensor& operator-=(const tensor& other);
    tensor& operator*=(float scale);

    /// Sum of all elements / sum of squares (used by loss and grad-norm code).
    double sum() const;
    double squared_norm() const;

private:
    shape_t shape_;
    std::vector<float> data_;
};

/// Elementwise binary ops returning new tensors (shapes must match).
tensor operator+(const tensor& a, const tensor& b);
tensor operator-(const tensor& a, const tensor& b);
tensor operator*(const tensor& a, float scale);

/// True when shapes are identical.
bool same_shape(const tensor& a, const tensor& b);

}  // namespace fallsense::nn
