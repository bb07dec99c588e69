// The flag table both defense layers share (support/flag_table.hpp): one
// typed suite holds the text-form and counter-fold contracts for the
// speculation mitigations and the memory-safety hardening alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harden/config.hpp"
#include "mitigate/config.hpp"
#include "support/error.hpp"

namespace crs {
namespace {

/// What the suite knows of one layer, written out by hand so that a bool
/// member the layer's table misses fails the `full` and round-trip checks.
struct MitigationLayer {
  using Config = mitigate::MitigationConfig;
  using Summary = mitigate::MitigationSummary;
  static constexpr unsigned kFlagCount = 7;

  /// Flag set from a mask, in table order.
  static Config from_mask(unsigned mask) {
    Config c;
    c.fence_bounds = (mask & 1) != 0;
    c.slh = (mask & 2) != 0;
    c.retpoline = (mask & 4) != 0;
    c.flush_predictors = (mask & 8) != 0;
    c.flush_l1 = (mask & 16) != 0;
    c.partition_cache = (mask & 32) != 0;
    c.ward_split = (mask & 64) != 0;
    return c;
  }

  /// A flag list no preset matches, its canonical form and its flag set.
  static constexpr const char* kSpacedList = " slh , retpoline ";
  static constexpr const char* kList = "slh,retpoline";
  static Config list_config() { return {.slh = true, .retpoline = true}; }

  static constexpr const char* kUnknownText = "bogus-defense";
  static constexpr const char* kUnknownError =
      "unknown mitigation 'bogus-defense' (valid presets: none, "
      "lfence-bounds, slh, retpoline, flush-on-switch, partition, "
      "ward-split, full; valid flags: fence-bounds, slh, retpoline, "
      "flush-predictors, flush-l1, partition, ward)";
  static constexpr const char* kUnknownPresetError =
      "unknown mitigation preset 'nope' (valid presets: none, "
      "lfence-bounds, slh, retpoline, flush-on-switch, partition, "
      "ward-split, full; valid flags: fence-bounds, slh, retpoline, "
      "flush-predictors, flush-l1, partition, ward)";

  static const auto& preset_names() { return mitigate::preset_names(); }
  static Config preset(const std::string& name) {
    return mitigate::preset(name);
  }
  static const auto& fields() { return mitigate::summary_fields(); }
  static void accumulate(Summary& into, const Summary& from) {
    mitigate::accumulate(into, from);
  }
};

struct HardenLayer {
  using Config = harden::HardenConfig;
  using Summary = harden::HardenSummary;
  static constexpr unsigned kFlagCount = 3;

  static Config from_mask(unsigned mask) {
    Config c;
    c.aslr = (mask & 1) != 0;
    c.canary = (mask & 2) != 0;
    c.heap_guard = (mask & 4) != 0;
    return c;
  }

  static constexpr const char* kSpacedList = " aslr , canary ";
  static constexpr const char* kList = "aslr,canary";
  static Config list_config() { return {.aslr = true, .canary = true}; }

  static constexpr const char* kUnknownText = "aslr,bogus";
  static constexpr const char* kUnknownError =
      "unknown hardening 'bogus' (valid presets: none, aslr, canary, "
      "heap-guard, full; valid flags: aslr, canary, heap-guard)";
  static constexpr const char* kUnknownPresetError =
      "unknown hardening preset 'nope' (valid presets: none, aslr, canary, "
      "heap-guard, full; valid flags: aslr, canary, heap-guard)";

  static const auto& preset_names() { return harden::preset_names(); }
  static Config preset(const std::string& name) {
    return harden::preset(name);
  }
  static const auto& fields() { return harden::summary_fields(); }
  static void accumulate(Summary& into, const Summary& from) {
    harden::accumulate(into, from);
  }
};

template <class Layer>
class DefenseLayer : public ::testing::Test {};

using Layers = ::testing::Types<MitigationLayer, HardenLayer>;
TYPED_TEST_SUITE(DefenseLayer, Layers);

TYPED_TEST(DefenseLayer, EveryFlagCombinationRoundTrips) {
  using Config = typename TypeParam::Config;
  for (unsigned mask = 0; mask < (1u << TypeParam::kFlagCount); ++mask) {
    const Config c = TypeParam::from_mask(mask);
    const std::string text = c.serialize();
    EXPECT_EQ(Config::parse(text), c) << "mask=" << mask << " text=" << text;
    EXPECT_EQ(c.any(), mask != 0) << "mask=" << mask;
  }
}

TYPED_TEST(DefenseLayer, PresetsAreCompleteAndCanonical) {
  using Config = typename TypeParam::Config;
  const auto& names = TypeParam::preset_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "none");
  EXPECT_EQ(names.back(), "full");
  for (const std::string& name : names) {
    const Config c = TypeParam::preset(name);
    // A preset name parses to its flag set and serializes back to itself.
    EXPECT_EQ(Config::parse(name), c);
    EXPECT_EQ(c.serialize(), name);
  }
  EXPECT_FALSE(TypeParam::preset("none").any());
  const Config full = TypeParam::preset("full");
  EXPECT_TRUE(full.any());
  EXPECT_EQ(full, TypeParam::from_mask((1u << TypeParam::kFlagCount) - 1))
      << "'full' must set every flag";
}

TYPED_TEST(DefenseLayer, ParsesFlagListsWithWhitespace) {
  using Config = typename TypeParam::Config;
  const Config expected = TypeParam::list_config();
  EXPECT_EQ(Config::parse(TypeParam::kList), expected);
  const Config c = Config::parse(TypeParam::kSpacedList);
  EXPECT_EQ(c, expected);
  EXPECT_EQ(c.serialize(), TypeParam::kList);
  EXPECT_EQ(Config::parse(c.serialize()), c);
}

TYPED_TEST(DefenseLayer, UnknownTokenThrowsWithListing) {
  using Config = typename TypeParam::Config;
  try {
    Config::parse(TypeParam::kUnknownText);
    FAIL() << "expected crs::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    // The CLI shows this text: the bad token, then every preset and flag.
    EXPECT_EQ(msg, TypeParam::kUnknownError);
    EXPECT_NE(msg.find("valid presets"), std::string::npos);
    for (const std::string& name : TypeParam::preset_names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
  }
  try {
    TypeParam::preset("nope");
    FAIL() << "expected crs::Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), TypeParam::kUnknownPresetError);
  }
}

TYPED_TEST(DefenseLayer, FieldTableCoversAccumulateAndTotal) {
  using Summary = typename TypeParam::Summary;
  Summary a, b;
  std::uint64_t expect = 0;
  std::uint64_t v = 1;
  for (const auto& f : TypeParam::fields()) {
    a.*(f.member) = v;
    b.*(f.member) = 2 * v;
    expect += 3 * v;
    ++v;
  }
  TypeParam::accumulate(a, b);
  EXPECT_EQ(a.total_events(), expect);
  EXPECT_EQ(Summary{}.total_events(), 0u);
  // Every counter of the struct is in the table: the struct holds nothing
  // but the counters, and each one the table names was set above.
  EXPECT_EQ(sizeof(Summary), (v - 1) * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace crs
