/**
 * @file
 * Unit tests for the mixed search space and acquisition functions.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "opt/acquisition.hpp"
#include "opt/search_space.hpp"

namespace ho = homunculus::opt;
namespace hc = homunculus::common;

namespace {

ho::SearchSpace
makeSpace()
{
    ho::SearchSpace space;
    space.addReal("lr", 1e-4, 1e-1, /*log_scale=*/true);
    space.addInteger("layers", 1, 6);
    space.addOrdinal("batch", {16, 32, 64});
    space.addCategorical("act", {"relu", "tanh"});
    return space;
}

}  // namespace

TEST(SearchSpace, SampleRespectsAllDomains)
{
    auto space = makeSpace();
    hc::Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        auto config = space.sample(rng);
        double lr = config.real("lr");
        EXPECT_GE(lr, 1e-4);
        EXPECT_LE(lr, 1e-1);
        auto layers = config.integer("layers");
        EXPECT_GE(layers, 1);
        EXPECT_LE(layers, 6);
        double batch = config.real("batch");
        EXPECT_TRUE(batch == 16 || batch == 32 || batch == 64);
        const auto &act = config.categorical("act");
        EXPECT_TRUE(act == "relu" || act == "tanh");
    }
}

TEST(SearchSpace, LogScaleCoversDecades)
{
    ho::SearchSpace space;
    space.addReal("lr", 1e-4, 1e-1, /*log_scale=*/true);
    hc::Rng rng(2);
    int low_decade = 0;
    for (int i = 0; i < 500; ++i)
        if (space.sample(rng).real("lr") < 1e-3)
            ++low_decade;
    // Log-uniform gives each decade ~1/3 of the mass; linear would give
    // the bottom decade < 1%.
    EXPECT_GT(low_decade, 100);
}

TEST(SearchSpace, EncodeWidthAndCategoricalIndex)
{
    auto space = makeSpace();
    ho::Configuration config;
    config.set("lr", 0.01);
    config.set("layers", std::int64_t{3});
    config.set("batch", 32.0);
    config.set("act", std::string("tanh"));
    auto row = space.encode(config);
    ASSERT_EQ(row.size(), 4u);
    EXPECT_DOUBLE_EQ(row[3], 1.0);  // "tanh" is option index 1.
}

TEST(SearchSpace, PerturbChangesAtMostOneDimension)
{
    auto space = makeSpace();
    hc::Rng rng(3);
    auto base = space.sample(rng);
    auto base_row = space.encode(base);
    for (int i = 0; i < 50; ++i) {
        auto perturbed = space.perturb(base, rng);
        auto row = space.encode(perturbed);
        int changed = 0;
        for (std::size_t d = 0; d < row.size(); ++d)
            if (row[d] != base_row[d])
                ++changed;
        EXPECT_LE(changed, 1);
    }
}

TEST(SearchSpace, FindAndParamAccessors)
{
    auto space = makeSpace();
    EXPECT_EQ(space.size(), 4u);
    EXPECT_NE(space.find("lr"), nullptr);
    EXPECT_EQ(space.find("missing"), nullptr);
    EXPECT_EQ(space.param(1).name, "layers");
}

TEST(SearchSpace, CardinalityCountsDiscreteDomains)
{
    ho::SearchSpace space;
    space.addInteger("a", 1, 4);
    space.addOrdinal("b", {1, 2, 3});
    space.addCategorical("c", {"x", "y"});
    EXPECT_DOUBLE_EQ(space.cardinalityEstimate(), 4.0 * 3.0 * 2.0);
}

TEST(SearchSpace, RejectsInvalidDomains)
{
    ho::SearchSpace space;
    EXPECT_THROW(space.addReal("x", 2.0, 1.0), std::runtime_error);
    EXPECT_THROW(space.addReal("x", -1.0, 1.0, true), std::runtime_error);
    EXPECT_THROW(space.addInteger("x", 5, 2), std::runtime_error);
    EXPECT_THROW(space.addOrdinal("x", {}), std::runtime_error);
    EXPECT_THROW(space.addCategorical("x", {}), std::runtime_error);
}

TEST(Configuration, TypedAccessorsAndErrors)
{
    ho::Configuration config;
    config.set("i", std::int64_t{7});
    config.set("r", 2.5);
    config.set("s", std::string("relu"));
    EXPECT_EQ(config.integer("i"), 7);
    EXPECT_DOUBLE_EQ(config.real("i"), 7.0);  // numeric coercion.
    EXPECT_DOUBLE_EQ(config.real("r"), 2.5);
    EXPECT_EQ(config.categorical("s"), "relu");
    EXPECT_THROW(config.real("missing"), std::runtime_error);
    EXPECT_THROW(config.categorical("r"), std::runtime_error);
    EXPECT_FALSE(config.toString().empty());
}

// ---------------------------------------------------------- acquisition ---

TEST(Acquisition, EiZeroWhenCertainAndWorse)
{
    EXPECT_DOUBLE_EQ(
        homunculus::opt::expectedImprovement(0.5, 0.0, 0.9, true), 0.0);
}

TEST(Acquisition, EiPositiveWhenCertainAndBetter)
{
    double ei = homunculus::opt::expectedImprovement(0.9, 0.0, 0.5, true,
                                                     0.0);
    EXPECT_NEAR(ei, 0.4, 1e-12);
}

TEST(Acquisition, EiGrowsWithUncertainty)
{
    double low = homunculus::opt::expectedImprovement(0.5, 0.01, 0.6, true);
    double high = homunculus::opt::expectedImprovement(0.5, 0.5, 0.6, true);
    EXPECT_GT(high, low);
}

TEST(Acquisition, EiMinimizationMirrorsMaximization)
{
    double max_side =
        homunculus::opt::expectedImprovement(0.8, 0.1, 0.5, true, 0.0);
    double min_side =
        homunculus::opt::expectedImprovement(0.2, 0.1, 0.5, false, 0.0);
    EXPECT_NEAR(max_side, min_side, 1e-12);
}
