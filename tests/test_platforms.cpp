/**
 * @file
 * Tests for core::Platforms: the four target names resolve through
 * byName() to the typed factories' default configs, names() lists them
 * sorted, and an unknown name is NOT_FOUND with the known names.
 */
#include <gtest/gtest.h>

#include "backends/fpga.hpp"
#include "backends/mat_platform.hpp"
#include "backends/taurus.hpp"
#include "core/alchemy.hpp"

namespace hb = homunculus::backends;
namespace hcore = homunculus::core;

namespace {

/** The concrete platform behind @p handle, or nullptr on a type miss. */
template <typename PlatformT>
const PlatformT *
as(const hcore::PlatformHandle &handle)
{
    return dynamic_cast<const PlatformT *>(&handle.platform());
}

}  // namespace

TEST(Platforms, NamesAreTheFourTargetsSorted)
{
    EXPECT_EQ(hcore::Platforms::names(),
              (std::vector<std::string>{"fpga", "taurus", "tofino",
                                        "tofino-mat"}));
}

TEST(Platforms, ByNameResolvesEachTargetWithItsDefaultConfig)
{
    auto taurus = hcore::Platforms::byName("taurus");
    ASSERT_TRUE(taurus.isOk());
    EXPECT_EQ(taurus->platform().name(), "taurus");
    ASSERT_NE(as<hb::TaurusPlatform>(*taurus), nullptr);
    EXPECT_EQ(as<hb::TaurusPlatform>(*taurus)->config().gridRows,
              hb::TaurusConfig{}.gridRows);
    EXPECT_EQ(as<hb::TaurusPlatform>(*taurus)->config().gridCols,
              hb::TaurusConfig{}.gridCols);
    EXPECT_EQ(as<hb::TaurusPlatform>(*taurus)->config().clockGhz,
              hb::TaurusConfig{}.clockGhz);

    // "tofino" and the MAT platform's own name "tofino-mat" are one
    // target.
    for (const char *name : {"tofino", "tofino-mat"}) {
        auto mat = hcore::Platforms::byName(name);
        ASSERT_TRUE(mat.isOk()) << name;
        EXPECT_EQ(mat->platform().name(), "tofino-mat") << name;
        ASSERT_NE(as<hb::MatPlatform>(*mat), nullptr) << name;
        const hb::MatConfig &config = as<hb::MatPlatform>(*mat)->config();
        EXPECT_EQ(config.numTables, hb::MatConfig{}.numTables) << name;
        EXPECT_EQ(config.entriesPerTable, hb::MatConfig{}.entriesPerTable)
            << name;
        EXPECT_EQ(config.binsPerFeature, hb::MatConfig{}.binsPerFeature)
            << name;
    }

    auto fpga = hcore::Platforms::byName("fpga");
    ASSERT_TRUE(fpga.isOk());
    EXPECT_EQ(fpga->platform().name(), "fpga");
    ASSERT_NE(as<hb::FpgaPlatform>(*fpga), nullptr);
    const hb::FpgaConfig &config = as<hb::FpgaPlatform>(*fpga)->config();
    EXPECT_EQ(config.lutBudgetPercent, hb::FpgaConfig{}.lutBudgetPercent);
    EXPECT_EQ(config.ffBudgetPercent, hb::FpgaConfig{}.ffBudgetPercent);
    EXPECT_EQ(config.bramBudgetPercent, hb::FpgaConfig{}.bramBudgetPercent);
    EXPECT_EQ(config.powerBudgetWatts, hb::FpgaConfig{}.powerBudgetWatts);
    EXPECT_EQ(config.lineRateGpps, hb::FpgaConfig{}.lineRateGpps);
}

TEST(Platforms, UnknownNameListsTheKnownNames)
{
    auto handle = hcore::Platforms::byName("netronome");
    ASSERT_FALSE(handle.isOk());
    EXPECT_EQ(handle.status().message(),
              "unknown platform 'netronome'; known platforms: fpga, "
              "taurus, tofino, tofino-mat");
}

TEST(Platforms, ByNameReportsNotFound)
{
    // Names match exactly: no case folding, no empty default.
    for (const char *name : {"no-such-target", "", "Taurus", "tofino "}) {
        auto handle = hcore::Platforms::byName(name);
        ASSERT_FALSE(handle.isOk()) << name;
        EXPECT_EQ(handle.status().code(), hcore::StatusCode::kNotFound)
            << name;
    }
}
