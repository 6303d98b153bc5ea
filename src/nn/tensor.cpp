#include "nn/tensor.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace fallsense::nn {

void shape_t::reserve_at_least(std::size_t count) {
    if (count <= capacity_) return;
    std::size_t cap = capacity_;
    while (cap < count) cap *= 2;
    std::size_t* heap = new std::size_t[cap];
    for (std::size_t i = 0; i < size_; ++i) heap[i] = ptr_[i];
    if (ptr_ != inline_) delete[] ptr_;
    ptr_ = heap;
    capacity_ = cap;
}

void shape_t::assign_from(const shape_t& other) {
    reserve_at_least(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) ptr_[i] = other.ptr_[i];
    size_ = other.size_;
}

void shape_t::steal_from(shape_t& other) noexcept {
    if (other.ptr_ != other.inline_) {
        ptr_ = other.ptr_;
        capacity_ = other.capacity_;
        size_ = other.size_;
        other.ptr_ = other.inline_;
        other.capacity_ = k_inline_rank;
        other.size_ = 0;
        return;
    }
    ptr_ = inline_;
    capacity_ = k_inline_rank;
    size_ = other.size_;
    for (std::size_t i = 0; i < size_; ++i) inline_[i] = other.inline_[i];
    other.size_ = 0;
}

std::ostream& operator<<(std::ostream& os, const shape_t& shape) {
    return os << shape_to_string(shape);
}

std::size_t shape_volume(const shape_t& shape) {
    std::size_t volume = 1;
    for (const std::size_t d : shape) volume *= d;
    return volume;
}

std::string shape_to_string(const shape_t& shape) {
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i) os << " x ";
        os << shape[i];
    }
    os << ']';
    return os.str();
}

namespace {

/// Thread-local recycler for tensor storage.  Destroyed tensors donate
/// their std::vector (capacity intact); constructions take the smallest
/// donated vector that fits and refill it with vector::assign, which
/// never reallocates when capacity suffices.  Bounded so a burst of huge
/// tensors cannot pin memory: at most k_pool_entries vectors, each at
/// most k_pool_max_floats.
class buffer_pool;

/// Trivially-destructible handle: null before the pool's first use and
/// again after its thread-exit destruction, so tensors destroyed during
/// thread teardown degrade to plain deallocation instead of touching a
/// dead pool.
thread_local buffer_pool* g_pool_ptr = nullptr;
thread_local bool g_pool_dead = false;

constexpr std::size_t k_pool_entries = 64;
constexpr std::size_t k_pool_max_floats = std::size_t{1} << 24;  // 64 MiB of floats

class buffer_pool {
public:
    buffer_pool() {
        free_.reserve(k_pool_entries);  // release() never reallocates below
        g_pool_ptr = this;
    }
    ~buffer_pool() {
        g_pool_ptr = nullptr;
        g_pool_dead = true;
    }

    std::vector<float> acquire(std::size_t n) {
        std::size_t best = free_.size();
        for (std::size_t i = 0; i < free_.size(); ++i) {
            const std::size_t cap = free_[i].capacity();
            if (cap < n) continue;
            if (best == free_.size() || cap < free_[best].capacity()) best = i;
        }
        if (best == free_.size()) return {};
        std::vector<float> out = std::move(free_[best]);
        free_[best] = std::move(free_.back());
        free_.pop_back();
        return out;
    }

    void release(std::vector<float>&& v) noexcept {
        if (v.capacity() == 0 || v.capacity() > k_pool_max_floats) return;
        if (free_.size() >= k_pool_entries) return;
        free_.push_back(std::move(v));
    }

private:
    std::vector<std::vector<float>> free_;
};

buffer_pool* pool_for_acquire() {
    if (g_pool_ptr == nullptr) {
        if (g_pool_dead) return nullptr;
        static thread_local buffer_pool pool;  // ctor publishes g_pool_ptr
        (void)pool;
    }
    return g_pool_ptr;
}

/// A vector with capacity >= n from the pool, or an empty vector when the
/// pool is torn down, exhausted, or has nothing big enough.  Contents are stale;
/// callers must assign/fill every element.
std::vector<float> pool_acquire(std::size_t n) {
    if (n == 0) return {};
    if (buffer_pool* pool = pool_for_acquire()) return pool->acquire(n);
    return {};
}

void pool_release(std::vector<float>&& v) noexcept {
    if (buffer_pool* pool = g_pool_ptr) pool->release(std::move(v));
}

}  // namespace

tensor::tensor(shape_t shape) : shape_(std::move(shape)) {
    const std::size_t n = shape_volume(shape_);
    data_ = pool_acquire(n);
    data_.assign(n, 0.0f);
}

tensor::tensor(shape_t shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
    FS_ARG_CHECK(data_.size() == shape_volume(shape_),
                 "tensor value count does not match shape " + shape_to_string(shape_));
}

tensor::tensor(const tensor& other) : shape_(other.shape_) {
    data_ = pool_acquire(other.data_.size());
    data_.assign(other.data_.begin(), other.data_.end());
}

tensor& tensor::operator=(const tensor& other) {
    if (this != &other) {
        shape_ = other.shape_;
        data_.assign(other.data_.begin(), other.data_.end());
    }
    return *this;
}

tensor& tensor::operator=(tensor&& other) noexcept {
    if (this != &other) {
        shape_ = std::move(other.shape_);
        // Swap instead of move-assign so this tensor's old buffer survives
        // inside `other` and reaches the pool via other's destructor.
        data_.swap(other.data_);
    }
    return *this;
}

tensor::~tensor() { pool_release(std::move(data_)); }

void tensor::assign(const shape_t& new_shape, std::span<const float> values) {
    FS_ARG_CHECK(values.size() == shape_volume(new_shape),
                 "tensor::assign value count does not match shape " +
                     shape_to_string(new_shape));
    shape_ = new_shape;
    data_.assign(values.begin(), values.end());
}

tensor tensor::full(shape_t shape, float value) {
    tensor t(std::move(shape));
    t.fill(value);
    return t;
}

tensor tensor::from_values(std::initializer_list<float> values) {
    return tensor({values.size()}, std::vector<float>(values));
}

std::size_t tensor::dim(std::size_t d) const {
    FS_ARG_CHECK(d < shape_.size(), "tensor dimension index out of range");
    return shape_[d];
}

float& tensor::operator[](std::size_t i) {
    FS_ARG_CHECK(i < data_.size(), "tensor flat index out of range");
    return data_[i];
}

float tensor::operator[](std::size_t i) const {
    FS_ARG_CHECK(i < data_.size(), "tensor flat index out of range");
    return data_[i];
}

std::size_t tensor::offset(std::initializer_list<std::size_t> idx) const {
    FS_ARG_CHECK(idx.size() == shape_.size(), "tensor index rank mismatch");
    std::size_t flat = 0;
    std::size_t d = 0;
    for (const std::size_t i : idx) {
        FS_ARG_CHECK(i < shape_[d], "tensor index out of range in dim " + std::to_string(d));
        flat = flat * shape_[d] + i;
        ++d;
    }
    return flat;
}

float& tensor::at(std::initializer_list<std::size_t> idx) { return data_[offset(idx)]; }

float tensor::at(std::initializer_list<std::size_t> idx) const { return data_[offset(idx)]; }

void tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

tensor tensor::reshaped(shape_t new_shape) const {
    FS_ARG_CHECK(shape_volume(new_shape) == data_.size(),
                 "reshape volume mismatch: " + shape_to_string(shape_) + " -> " +
                     shape_to_string(new_shape));
    tensor out = *this;  // pooled copy
    out.shape_ = std::move(new_shape);
    return out;
}

tensor& tensor::operator+=(const tensor& other) {
    FS_ARG_CHECK(same_shape(*this, other), "tensor += shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
}

tensor& tensor::operator-=(const tensor& other) {
    FS_ARG_CHECK(same_shape(*this, other), "tensor -= shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
}

tensor& tensor::operator*=(float scale) {
    for (float& v : data_) v *= scale;
    return *this;
}

double tensor::sum() const {
    double acc = 0.0;
    for (const float v : data_) acc += v;
    return acc;
}

double tensor::squared_norm() const {
    double acc = 0.0;
    for (const float v : data_) acc += static_cast<double>(v) * v;
    return acc;
}

tensor operator+(const tensor& a, const tensor& b) {
    tensor out = a;
    out += b;
    return out;
}

tensor operator-(const tensor& a, const tensor& b) {
    tensor out = a;
    out -= b;
    return out;
}

tensor operator*(const tensor& a, float scale) {
    tensor out = a;
    out *= scale;
    return out;
}

bool same_shape(const tensor& a, const tensor& b) { return a.shape() == b.shape(); }

}  // namespace fallsense::nn
