#include "nn/multi_branch.hpp"

#include <gtest/gtest.h>

#include <string>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/misc_layers.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace fallsense::nn {
namespace {

std::unique_ptr<multi_branch_network> make_tiny_network(util::rng& gen) {
    std::vector<std::unique_ptr<sequential>> branches;
    for (int b = 0; b < 3; ++b) {
        auto branch = std::make_unique<sequential>();
        std::string name = "b";
        name += std::to_string(b);
        name += ".conv";
        branch->emplace<conv1d>(3, 4, 3, gen, name);
        branch->emplace<relu>();
        branch->emplace<maxpool1d>(2);
        branch->emplace<flatten>();
        branches.push_back(std::move(branch));
    }
    auto trunk = std::make_unique<sequential>();
    // window 10 -> conv 8 -> pool 4 -> 4*4=16 per branch, 48 concat.
    trunk->emplace<dense>(48, 8, gen, true, "t.d0");
    trunk->emplace<relu>();
    trunk->emplace<dense>(8, 1, gen, false, "t.logit");
    return std::make_unique<multi_branch_network>(std::vector<std::size_t>{3, 3, 3},
                                                  std::move(branches), std::move(trunk));
}

TEST(MultiBranchTest, ForwardShape) {
    util::rng gen(1);
    auto net = make_tiny_network(gen);
    const tensor x({5, 10, 9});
    const tensor y = net->forward(x, false);
    EXPECT_EQ(y.shape(), (shape_t{5, 1}));
}

TEST(MultiBranchTest, OutputShapeHelperAgrees) {
    util::rng gen(2);
    auto net = make_tiny_network(gen);
    EXPECT_EQ(net->output_shape({10, 9}), (shape_t{1}));
}

TEST(MultiBranchTest, ChannelSplitIsFaithful) {
    // Zero out branch 0's conv weights: changing channels 0-2 must not
    // change the output; changing channels 3-5 must.
    util::rng gen(3);
    auto net = make_tiny_network(gen);
    auto& conv0 = static_cast<conv1d&>(net->branch(0).layer_at(0));
    conv0.weight().value.fill(0.0f);
    conv0.bias().value.fill(0.0f);

    util::rng dg(5);
    tensor x({1, 10, 9});
    for (float& v : x.values()) v = static_cast<float>(dg.normal());
    const tensor y_base = net->forward(x, false);

    tensor x_mod_g0 = x;
    for (std::size_t t = 0; t < 10; ++t) x_mod_g0.at({0, t, 1}) += 10.0f;
    const tensor y_g0 = net->forward(x_mod_g0, false);
    EXPECT_FLOAT_EQ(y_g0[0], y_base[0]);

    tensor x_mod_g1 = x;
    for (std::size_t t = 0; t < 10; ++t) x_mod_g1.at({0, t, 4}) += 10.0f;
    const tensor y_g1 = net->forward(x_mod_g1, false);
    EXPECT_NE(y_g1[0], y_base[0]);
}

TEST(MultiBranchTest, BackwardProducesInputShapedGradient) {
    util::rng gen(4);
    auto net = make_tiny_network(gen);
    const tensor x({2, 10, 9});
    net->forward(x, true);
    const tensor gx = net->backward(tensor({2, 1}, {1.0f, 1.0f}));
    EXPECT_EQ(gx.shape(), (shape_t{2, 10, 9}));
}

TEST(MultiBranchTest, ParameterAggregation) {
    util::rng gen(5);
    auto net = make_tiny_network(gen);
    // 3 branches x (conv w + b) + trunk (2 dense x 2) = 10 parameters.
    EXPECT_EQ(net->parameters().size(), 10u);
}

TEST(MultiBranchTest, RejectsChannelMismatch) {
    util::rng gen(6);
    auto net = make_tiny_network(gen);
    EXPECT_THROW(net->forward(tensor({1, 10, 8}), false), std::invalid_argument);
}

TEST(MultiBranchTest, GradientFlowsToBranchWeights) {
    util::rng gen(7);
    auto net = make_tiny_network(gen);
    util::rng dg(8);
    tensor x({4, 10, 9});
    for (float& v : x.values()) v = static_cast<float>(dg.normal());
    for (parameter* p : net->parameters()) p->zero_grad();
    net->forward(x, true);
    net->backward(tensor({4, 1}, {1, 1, 1, 1}));
    // Every branch conv weight should have received some gradient.
    for (std::size_t b = 0; b < 3; ++b) {
        auto& conv = static_cast<conv1d&>(net->branch(b).layer_at(0));
        EXPECT_GT(conv.weight().grad.squared_norm(), 0.0) << "branch " << b;
    }
}

TEST(MultiBranchTest, CloneForwardsBitIdenticallyAndIndependently) {
    // clone() (the serving layer's per-shard replica mechanism) must copy
    // every branch and trunk parameter exactly and share no state: the
    // clone forwards to the same bits, and mutating the source afterwards
    // leaves the clone untouched.
    util::rng gen(10);
    auto net = make_tiny_network(gen);
    util::rng dg(11);
    tensor x({3, 10, 9});
    for (float& v : x.values()) v = static_cast<float>(dg.normal());
    const tensor y_source = net->forward(x, false);

    const auto copy = net->clone();
    const tensor y_clone = copy->forward(x, false);
    ASSERT_EQ(y_clone.shape(), y_source.shape());
    for (std::size_t i = 0; i < y_source.size(); ++i) {
        EXPECT_EQ(y_clone[i], y_source[i]) << "row " << i;  // bitwise
    }

    auto& conv0 = static_cast<conv1d&>(net->branch(0).layer_at(0));
    conv0.weight().value.fill(0.0f);
    conv0.bias().value.fill(0.0f);
    const tensor y_clone_after = copy->forward(x, false);
    for (std::size_t i = 0; i < y_source.size(); ++i) {
        EXPECT_EQ(y_clone_after[i], y_source[i]) << "row " << i;
    }
}

TEST(MultiBranchTest, ConstructionValidation) {
    util::rng gen(9);
    auto trunk = std::make_unique<sequential>();
    trunk->emplace<dense>(4, 1, gen);
    EXPECT_THROW(multi_branch_network({}, {}, std::move(trunk)), std::invalid_argument);
}

}  // namespace
}  // namespace fallsense::nn
