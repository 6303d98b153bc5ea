#include "mcu/deployment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/models.hpp"
#include "quant/cnn_spec.hpp"
#include "util/rng.hpp"

namespace fallsense::mcu {
namespace {

quant::quantized_cnn make_model(std::uint64_t seed) {
    auto net = core::build_fallsense_cnn(20, seed);
    const quant::cnn_spec spec = quant::extract_cnn_spec(*net, 20);
    util::rng gen(seed + 1);
    nn::tensor calibration({16, 20, 9});
    for (float& v : calibration.values()) v = static_cast<float>(gen.normal());
    return quant::quantized_cnn(spec, calibration);
}

TEST(DeploymentTest, BlobStartsWithMagic) {
    const auto blob = serialize_deployment_blob(make_model(1));
    ASSERT_GE(blob.size(), 4u);
    EXPECT_EQ(std::memcmp(blob.data(), "FSQ1", 4), 0);
}

TEST(DeploymentTest, BlobHeaderEncodesDimensions) {
    const auto blob = serialize_deployment_blob(make_model(2));
    std::uint32_t time_steps = 0, channels = 0, branches = 0, trunk = 0;
    std::memcpy(&time_steps, blob.data() + 4, 4);
    std::memcpy(&channels, blob.data() + 8, 4);
    std::memcpy(&branches, blob.data() + 12, 4);
    std::memcpy(&trunk, blob.data() + 16, 4);
    EXPECT_EQ(time_steps, 20u);
    EXPECT_EQ(channels, 9u);
    EXPECT_EQ(branches, 3u);
    EXPECT_EQ(trunk, 3u);
}

TEST(DeploymentTest, BlobSizeDominatedByWeights) {
    const quant::quantized_cnn model = make_model(3);
    const auto blob = serialize_deployment_blob(model);
    EXPECT_GT(blob.size(), model.weight_bytes());
    // Metadata overhead stays small relative to weights.
    EXPECT_LT(blob.size(), model.weight_bytes() + model.bias_bytes() + 4096);
}

TEST(DeploymentTest, BlobDeterministic) {
    const auto a = serialize_deployment_blob(make_model(4));
    const auto b = serialize_deployment_blob(make_model(4));
    EXPECT_EQ(a, b);
}

TEST(DeploymentTest, LoaderRoundTripPreservesInference) {
    const quant::quantized_cnn original = make_model(6);
    const auto blob = serialize_deployment_blob(original);
    const quant::quantized_cnn loaded = deserialize_deployment_blob(blob);

    util::rng gen(99);
    nn::tensor seg({20, 9});
    for (float& v : seg.values()) v = static_cast<float>(gen.normal());
    // The loaded graph must be bit-identical in behavior.
    EXPECT_FLOAT_EQ(loaded.predict_logit(seg.values()), original.predict_logit(seg.values()));
    EXPECT_EQ(loaded.weight_bytes(), original.weight_bytes());
    EXPECT_EQ(loaded.time_steps(), original.time_steps());
    EXPECT_EQ(loaded.input_channels(), original.input_channels());
}

TEST(DeploymentTest, LoaderRejectsBadMagic) {
    auto blob = serialize_deployment_blob(make_model(7));
    blob[0] = 'X';
    EXPECT_THROW(deserialize_deployment_blob(blob), std::runtime_error);
}

TEST(DeploymentTest, LoaderRejectsTruncation) {
    const auto blob = serialize_deployment_blob(make_model(8));
    for (const std::size_t keep :
         {std::size_t{5}, std::size_t{20}, blob.size() / 2, blob.size() - 1}) {
        const std::span<const std::uint8_t> cut(blob.data(), keep);
        EXPECT_THROW(deserialize_deployment_blob(cut), std::runtime_error) << keep;
    }
}

TEST(DeploymentTest, LoaderRejectsTrailingBytes) {
    auto blob = serialize_deployment_blob(make_model(9));
    blob.push_back(0);
    EXPECT_THROW(deserialize_deployment_blob(blob), std::runtime_error);
}

TEST(DeploymentTest, LoaderRejectsImplausibleHeader) {
    auto blob = serialize_deployment_blob(make_model(10));
    // Corrupt the time-steps field with a huge value.
    const std::uint32_t huge = 0x7fffffff;
    std::memcpy(blob.data() + 4, &huge, 4);
    EXPECT_THROW(deserialize_deployment_blob(blob), std::runtime_error);
}

TEST(DeploymentTest, LoaderRejectsInconsistentChannels) {
    auto blob = serialize_deployment_blob(make_model(11));
    // Header says 9 channels; claim 8 instead.
    const std::uint32_t wrong = 8;
    std::memcpy(blob.data() + 8, &wrong, 4);
    EXPECT_THROW(deserialize_deployment_blob(blob), std::runtime_error);
}

TEST(DeploymentTest, LoaderRejectsCorruptQuantization) {
    // Structurally sound blobs whose int8 arithmetic would break: the
    // quantized_cnn constructor rejects them before anything executes.
    // Offsets: magic 4 + header 16, input_q (scale, zero point) at 20,
    // concat_q at 28, then branch 0: four dims, weight_q, mantissa at 60
    // and right shift at 64.
    const auto clean = serialize_deployment_blob(make_model(12));
    const auto corrupt = [&clean](std::size_t offset, auto value) {
        auto blob = clean;
        std::memcpy(blob.data() + offset, &value, sizeof value);
        return blob;
    };
    EXPECT_NO_THROW(deserialize_deployment_blob(clean));
    EXPECT_THROW(deserialize_deployment_blob(corrupt(20, 0.0f)), std::invalid_argument);
    EXPECT_THROW(deserialize_deployment_blob(corrupt(20, -1.0f)), std::invalid_argument);
    EXPECT_THROW(deserialize_deployment_blob(corrupt(20, INFINITY)), std::invalid_argument);
    EXPECT_THROW(deserialize_deployment_blob(corrupt(24, std::int32_t{300})),
                 std::invalid_argument);
    EXPECT_THROW(deserialize_deployment_blob(corrupt(32, std::int32_t{-129})),
                 std::invalid_argument);
    EXPECT_THROW(deserialize_deployment_blob(corrupt(60, std::int32_t{1})),
                 std::invalid_argument);
    EXPECT_THROW(deserialize_deployment_blob(corrupt(64, std::int32_t{32})),
                 std::invalid_argument);
    EXPECT_THROW(deserialize_deployment_blob(corrupt(64, std::int32_t{-1})),
                 std::invalid_argument);
}

TEST(DeploymentTest, CArrayRendering) {
    const std::vector<std::uint8_t> blob{0x01, 0xff, 0x10};
    const std::string c = render_c_array(blob, "model_blob");
    EXPECT_NE(c.find("const unsigned char model_blob[3]"), std::string::npos);
    EXPECT_NE(c.find("1, 255, 16"), std::string::npos);
    EXPECT_NE(c.find("model_blob_len = 3"), std::string::npos);
}

TEST(DeploymentTest, CArrayOfRealModelParses) {
    const auto blob = serialize_deployment_blob(make_model(5));
    const std::string c = render_c_array(blob, "net");
    // Sanity: one decimal literal per byte (count commas + 1 per line group).
    std::size_t commas = 0;
    for (const char ch : c) commas += (ch == ',') ? 1 : 0;
    EXPECT_EQ(commas, blob.size() - 1);
}

}  // namespace
}  // namespace fallsense::mcu
