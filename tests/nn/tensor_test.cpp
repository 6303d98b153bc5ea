#include "nn/tensor.hpp"

#include <gtest/gtest.h>

namespace fallsense::nn {
namespace {

TEST(TensorTest, ShapeVolume) {
    EXPECT_EQ(shape_volume({}), 1u);
    EXPECT_EQ(shape_volume({3}), 3u);
    EXPECT_EQ(shape_volume({2, 3, 4}), 24u);
    EXPECT_EQ(shape_volume({2, 0, 4}), 0u);
}

TEST(TensorTest, ShapeToString) {
    EXPECT_EQ(shape_to_string({2, 20, 9}), "[2 x 20 x 9]");
    EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(TensorTest, DefaultIsEmpty) {
    tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.rank(), 0u);
}

TEST(TensorTest, ZeroInitialized) {
    tensor t({2, 3});
    EXPECT_EQ(t.size(), 6u);
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ConstructFromValues) {
    tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
    EXPECT_FLOAT_EQ(t.at({1, 0}), 3.0f);
}

TEST(TensorTest, ConstructRejectsSizeMismatch) {
    EXPECT_THROW(tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(TensorTest, FullFills) {
    const tensor t = tensor::full({3}, 2.5f);
    EXPECT_FLOAT_EQ(t[0], 2.5f);
    EXPECT_FLOAT_EQ(t[2], 2.5f);
}

TEST(TensorTest, MultiIndexRowMajorOrder) {
    tensor t({2, 3});
    t.at({1, 2}) = 7.0f;
    EXPECT_FLOAT_EQ(t[5], 7.0f);
    t.at({0, 1}) = 3.0f;
    EXPECT_FLOAT_EQ(t[1], 3.0f);
}

TEST(TensorTest, BoundsChecking) {
    tensor t({2, 3});
    EXPECT_THROW(t[6], std::invalid_argument);
    EXPECT_THROW(t.at({2, 0}), std::invalid_argument);
    EXPECT_THROW(t.at({0}), std::invalid_argument);  // rank mismatch
    EXPECT_THROW(t.dim(2), std::invalid_argument);
}

TEST(TensorTest, ReshapePreservesData) {
    tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
    const tensor r = t.reshaped({3, 2});
    EXPECT_FLOAT_EQ(r.at({2, 1}), 6.0f);
    EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(TensorTest, ElementwiseArithmetic) {
    tensor a({2}, {1.0f, 2.0f});
    const tensor b({2}, {10.0f, 20.0f});
    const tensor sum = a + b;
    EXPECT_FLOAT_EQ(sum[1], 22.0f);
    const tensor diff = b - a;
    EXPECT_FLOAT_EQ(diff[0], 9.0f);
    a *= 3.0f;
    EXPECT_FLOAT_EQ(a[1], 6.0f);
}

TEST(TensorTest, ArithmeticShapeMismatchThrows) {
    tensor a({2});
    const tensor b({3});
    EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(TensorTest, SumAndNorm) {
    const tensor t({3}, {1.0f, -2.0f, 3.0f});
    EXPECT_DOUBLE_EQ(t.sum(), 2.0);
    EXPECT_DOUBLE_EQ(t.squared_norm(), 14.0);
}

TEST(TensorTest, FromValuesMakes1D) {
    const tensor t = tensor::from_values({1.0f, 2.0f, 3.0f});
    EXPECT_EQ(t.shape(), (shape_t{3}));
}

TEST(TensorTest, ShapeInlineAndHeapRanks) {
    // shape_t stores up to six dims inline; higher ranks spill to the heap
    // transparently.  Both paths must copy, compare, and iterate alike.
    shape_t inline_shape{2, 3, 4};
    EXPECT_EQ(inline_shape.size(), 3u);
    shape_t deep;
    for (std::size_t d = 1; d <= 9; ++d) deep.push_back(d);
    EXPECT_EQ(deep.size(), 9u);
    EXPECT_EQ(deep[8], 9u);
    shape_t deep_copy = deep;
    EXPECT_EQ(deep_copy, deep);
    shape_t moved = std::move(deep_copy);
    EXPECT_EQ(moved, deep);
    std::size_t product = 1;
    for (const std::size_t d : moved) product *= d;
    EXPECT_EQ(product, 362880u);
    EXPECT_NE(moved, inline_shape);
    // Count-constructor zero-fills (the deserializer mutates in place).
    shape_t counted(4);
    EXPECT_EQ(counted.size(), 4u);
    for (std::size_t i = 0; i < counted.size(); ++i) {
        EXPECT_EQ(counted[i], 0u);
        counted[i] = i + 1;
    }
    EXPECT_EQ(counted, (shape_t{1, 2, 3, 4}));
}

TEST(TensorTest, BufferPoolRecyclesStorage) {
    // A destroyed tensor donates its buffer to the thread-local pool; the
    // next same-size acquisition reuses it (zero-filled).  The reuse check
    // is conditional because best fit may hand back an equally sized
    // buffer that an earlier test on this thread already pooled.
    const float* first = nullptr;
    {
        tensor t({16, 16});
        t.fill(3.5f);
        first = t.data();
    }
    tensor reuse({16, 16});
    if (reuse.data() == first) {
        for (std::size_t i = 0; i < reuse.size(); ++i) {
            ASSERT_EQ(reuse[i], 0.0f) << "recycled buffer must be re-zeroed";
        }
    }
    // Whether or not the buffer came back from the pool, semantics hold.
    EXPECT_EQ(reuse.size(), 256u);
}

TEST(TensorTest, MoveAndCopyKeepPoolSemantics) {
    tensor a({4, 4});
    a.fill(2.0f);
    tensor b = a;  // pooled copy
    EXPECT_NE(b.data(), a.data());
    EXPECT_EQ(b.at({1, 1}), 2.0f);
    tensor c = std::move(a);
    EXPECT_EQ(c.at({2, 2}), 2.0f);
    b = std::move(c);  // move-assign swaps; old buffer recycles via c's dtor
    EXPECT_EQ(b.at({3, 3}), 2.0f);
    tensor d;
    d = b;  // copy-assign
    EXPECT_EQ(d.at({0, 0}), 2.0f);
    d = d;  // self-assignment is a no-op
    EXPECT_EQ(d.at({0, 0}), 2.0f);
}

}  // namespace
}  // namespace fallsense::nn
