#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace fallsense::nn {
namespace {

std::unique_ptr<sequential> make_net(std::uint64_t seed) {
    util::rng gen(seed);
    auto net = std::make_unique<sequential>();
    net->emplace<dense>(4, 6, gen, true, "d0");
    net->emplace<relu>();
    net->emplace<dense>(6, 1, gen, false, "out");
    return net;
}

TEST(SerializeTest, RoundTripPreservesWeights) {
    auto src = make_net(1);
    std::stringstream buffer;
    save_weights(*src, buffer);

    auto dst = make_net(2);  // different init
    load_weights(*dst, buffer);

    const auto ps = src->parameters();
    const auto pd = dst->parameters();
    ASSERT_EQ(ps.size(), pd.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        for (std::size_t j = 0; j < ps[i]->value.size(); ++j) {
            EXPECT_FLOAT_EQ(ps[i]->value[j], pd[i]->value[j]);
        }
    }
}

TEST(SerializeTest, RoundTripPreservesPredictions) {
    auto src = make_net(3);
    const tensor x({2, 4}, {0.1f, -0.2f, 0.3f, 0.4f, 1.0f, -1.0f, 0.5f, -0.5f});
    const tensor y_src = src->forward(x, false);

    std::stringstream buffer;
    save_weights(*src, buffer);
    auto dst = make_net(4);
    load_weights(*dst, buffer);
    const tensor y_dst = dst->forward(x, false);
    for (std::size_t i = 0; i < y_src.size(); ++i) EXPECT_FLOAT_EQ(y_src[i], y_dst[i]);
}

TEST(SerializeTest, RejectsBadMagic) {
    auto net = make_net(5);
    std::stringstream buffer("XXXXjunkjunkjunk");
    EXPECT_THROW(load_weights(*net, buffer), std::runtime_error);
}

TEST(SerializeTest, RejectsTruncatedStream) {
    auto src = make_net(6);
    std::stringstream buffer;
    save_weights(*src, buffer);
    const std::string full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    auto dst = make_net(7);
    EXPECT_THROW(load_weights(*dst, truncated), std::runtime_error);
}

TEST(SerializeTest, RejectsArchitectureMismatch) {
    auto src = make_net(8);
    std::stringstream buffer;
    save_weights(*src, buffer);

    util::rng gen(9);
    sequential other;
    other.emplace<dense>(4, 5, gen, true, "d0");  // different width
    EXPECT_THROW(load_weights(other, buffer), std::runtime_error);
}

TEST(SerializeTest, RejectsParameterNameMismatch) {
    auto src = make_net(10);
    std::stringstream buffer;
    save_weights(*src, buffer);

    util::rng gen(11);
    sequential other;
    other.emplace<dense>(4, 6, gen, true, "renamed");
    other.emplace<relu>();
    other.emplace<dense>(6, 1, gen, false, "out");
    EXPECT_THROW(load_weights(other, buffer), std::runtime_error);
}

TEST(SerializeTest, LoadsHeaderlessVersionZeroStream) {
    // Files written before the magic/version header started directly at
    // the u64 parameter count; stripping the 8-byte header off a current
    // stream reproduces that layout exactly.
    auto src = make_net(20);
    std::stringstream buffer;
    save_weights(*src, buffer);
    std::stringstream headerless(buffer.str().substr(8));

    auto dst = make_net(21);
    load_weights(*dst, headerless);
    const auto ps = src->parameters();
    const auto pd = dst->parameters();
    ASSERT_EQ(ps.size(), pd.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        for (std::size_t j = 0; j < ps[i]->value.size(); ++j) {
            EXPECT_FLOAT_EQ(ps[i]->value[j], pd[i]->value[j]);
        }
    }
}

TEST(SerializeTest, RejectsFutureVersionWithTypedError) {
    auto src = make_net(22);
    std::stringstream buffer;
    save_weights(*src, buffer);
    std::string bytes = buffer.str();
    bytes[4] = 99;  // u32 version little-endian low byte
    std::stringstream future(bytes);

    auto dst = make_net(23);
    try {
        load_weights(*dst, future);
        FAIL() << "future version should not load";
    } catch (const serialize_error& e) {
        EXPECT_EQ(e.kind(), serialize_error_kind::bad_version);
    }
}

TEST(SerializeTest, ErrorKindsDistinguishTruncationFromMismatch) {
    auto src = make_net(24);
    std::stringstream buffer;
    save_weights(*src, buffer);
    const std::string full = buffer.str();

    auto dst = make_net(25);
    std::stringstream truncated(full.substr(0, full.size() / 2));
    try {
        load_weights(*dst, truncated);
        FAIL() << "truncated stream should not load";
    } catch (const serialize_error& e) {
        EXPECT_EQ(e.kind(), serialize_error_kind::truncated);
    }

    util::rng gen(26);
    sequential other;
    other.emplace<dense>(4, 5, gen, true, "d0");  // wrong parameter count
    std::stringstream again(full);
    try {
        load_weights(other, again);
        FAIL() << "mismatched model should not load";
    } catch (const serialize_error& e) {
        EXPECT_EQ(e.kind(), serialize_error_kind::mismatch);
    }
}

// Overwrite the little-endian u32 at `offset` of a serialized stream.
std::string with_u32(std::string bytes, std::size_t offset, std::uint32_t value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
}

serialize_error_kind load_error_kind(model& m, const std::string& bytes) {
    std::stringstream in(bytes);
    try {
        load_weights(m, in);
    } catch (const serialize_error& e) {
        return e.kind();
    }
    ADD_FAILURE() << "stream should not load";
    return serialize_error_kind::io;
}

// Header (magic + version) and the u64 parameter count precede the first
// parameter's u32 name length.
constexpr std::size_t k_first_name_len_offset = 16;

TEST(SerializeTest, RejectsNonFiniteWeightWithTypedError) {
    auto src = make_net(27);
    src->parameters()[1]->value[0] = std::numeric_limits<float>::quiet_NaN();
    std::stringstream buffer;
    save_weights(*src, buffer);

    auto dst = make_net(28);
    EXPECT_EQ(load_error_kind(*dst, buffer.str()), serialize_error_kind::bad_value);

    src->parameters()[1]->value[0] = -std::numeric_limits<float>::infinity();
    std::stringstream inf_buffer;
    save_weights(*src, inf_buffer);
    EXPECT_EQ(load_error_kind(*dst, inf_buffer.str()), serialize_error_kind::bad_value);
}

TEST(SerializeTest, RejectsHugeNameLengthBeforeAllocating) {
    auto src = make_net(29);
    std::stringstream buffer;
    save_weights(*src, buffer);
    const std::string corrupt =
        with_u32(buffer.str(), k_first_name_len_offset, 0xFFFFFFF0u);

    auto dst = make_net(30);
    EXPECT_EQ(load_error_kind(*dst, corrupt), serialize_error_kind::mismatch);
}

TEST(SerializeTest, RejectsHugeRankBeforeAllocating) {
    auto src = make_net(31);
    std::stringstream buffer;
    save_weights(*src, buffer);
    const std::size_t rank_offset =
        k_first_name_len_offset + sizeof(std::uint32_t) + src->parameters()[0]->name.size();
    const std::string corrupt = with_u32(buffer.str(), rank_offset, 0xFFFFFFFFu);

    auto dst = make_net(32);
    EXPECT_EQ(load_error_kind(*dst, corrupt), serialize_error_kind::mismatch);
}

TEST(SerializeTest, FileRoundTrip) {
    const auto path = std::filesystem::temp_directory_path() / "fallsense_weights_test.bin";
    auto src = make_net(12);
    save_weights_file(*src, path);
    auto dst = make_net(13);
    load_weights_file(*dst, path);
    const auto ps = src->parameters();
    const auto pd = dst->parameters();
    for (std::size_t i = 0; i < ps.size(); ++i) {
        EXPECT_FLOAT_EQ(ps[i]->value[0], pd[i]->value[0]);
    }
    std::filesystem::remove(path);
}

TEST(SerializeTest, MissingFileThrows) {
    auto net = make_net(14);
    EXPECT_THROW(load_weights_file(*net, "/nonexistent/weights.bin"), std::runtime_error);
}

}  // namespace
}  // namespace fallsense::nn
