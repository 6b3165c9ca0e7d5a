#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "market/revocation.hpp"
#include "market/spot_trace.hpp"
#include "market/trace_generator.hpp"
#include "temp_path.hpp"

namespace {

using namespace rrp::market;

void expect_invalid(const std::function<void()>& fn,
                    const std::string& needle) {
  try {
    fn();
    FAIL() << "expected InvalidArgument mentioning \"" << needle << "\"";
  } catch (const rrp::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(RevocationConfig, ValidatesFieldsByName) {
  RevocationConfig cfg;
  cfg.hazard_per_slot = 1.5;
  expect_invalid([&] { cfg.validate(); }, "hazard_per_slot");
  cfg = RevocationConfig{};
  cfg.storm_rate = -0.1;
  expect_invalid([&] { cfg.validate(); }, "storm_rate");
  cfg = RevocationConfig{};
  cfg.storm_severity = std::nan("");
  expect_invalid([&] { cfg.validate(); }, "storm_severity");
  cfg = RevocationConfig{};
  cfg.checkpoint_interval = 0.0;
  expect_invalid([&] { cfg.validate(); }, "checkpoint_interval");
  cfg = RevocationConfig{};
  cfg.checkpoint_interval = 1.5;
  expect_invalid([&] { cfg.validate(); }, "checkpoint_interval");
  cfg = RevocationConfig{};
  cfg.checkpoint_overhead = 2.0;
  expect_invalid([&] { cfg.validate(); }, "checkpoint_overhead");
  cfg = RevocationConfig{};
  cfg.restart_cost = -1.0;
  expect_invalid([&] { cfg.validate(); }, "restart_cost");
  cfg = RevocationConfig{};
  cfg.migration_cost = std::numeric_limits<double>::infinity();
  expect_invalid([&] { cfg.validate(); }, "migration_cost");
  RevocationConfig{}.validate();  // defaults are valid
}

TEST(RevocationConfig, NamedRegimes) {
  const RevocationConfig calm = RevocationConfig::regime("calm");
  EXPECT_TRUE(calm.enabled);
  EXPECT_EQ(calm.hazard_per_slot, 0.0);
  EXPECT_EQ(calm.storm_rate, 0.0);

  const RevocationConfig cross = RevocationConfig::regime("bid-cross");
  EXPECT_GT(cross.hazard_per_slot, 0.0);
  EXPECT_EQ(cross.storm_rate, 0.0);

  const RevocationConfig storm = RevocationConfig::regime("storm");
  EXPECT_GT(storm.storm_rate, 0.0);
  EXPECT_GT(storm.hazard_per_slot, 0.0);

  expect_invalid([] { (void)RevocationConfig::regime("hurricane"); },
                 "hurricane");
}

TEST(RevocationModel, DeterministicAcrossConstructions) {
  RevocationConfig cfg = RevocationConfig::storm();
  cfg.seed = 99;
  const RevocationModel a(cfg, 200);
  const RevocationModel b(cfg, 200);
  for (std::size_t t = 0; t < 200; ++t) {
    EXPECT_EQ(a.storm_at(t), b.storm_at(t));
    EXPECT_EQ(a.revocation(t, 0.1, 0.05), b.revocation(t, 0.1, 0.05));
    EXPECT_DOUBLE_EQ(a.interruption_fraction(t),
                     b.interruption_fraction(t));
  }
}

TEST(RevocationModel, DisabledNeverRevokes) {
  RevocationConfig cfg;  // enabled = false
  cfg.hazard_per_slot = 1.0;
  cfg.storm_rate = 1.0;
  const RevocationModel model(cfg, 50);
  for (std::size_t t = 0; t < 50; ++t) {
    EXPECT_FALSE(model.storm_at(t));
    // Even a crossed bid does not revoke while the layer is off.
    EXPECT_FALSE(model.revocation(t, 0.1, 99.0).has_value());
  }
}

TEST(RevocationModel, BidCrossFiresExactlyWhenMaxExceedsBid) {
  RevocationConfig cfg = RevocationConfig::calm();  // no hazard, no storms
  cfg.seed = 3;
  const RevocationModel model(cfg, 10);
  for (std::size_t t = 0; t < 10; ++t) {
    EXPECT_EQ(model.revocation(t, 0.10, 0.12),
              std::optional<RevocationKind>(RevocationKind::BidCross));
    EXPECT_FALSE(model.revocation(t, 0.10, 0.10).has_value());
    EXPECT_FALSE(model.revocation(t, 0.10, 0.08).has_value());
  }
}

TEST(RevocationModel, StormDominatesBidCrossDominatesHazard) {
  RevocationConfig cfg;
  cfg.enabled = true;
  cfg.hazard_per_slot = 1.0;  // every slot hazards...
  cfg.storm_rate = 1.0;       // ...and storms, severity 1
  cfg.storm_severity = 1.0;
  const RevocationModel model(cfg, 5);
  // Storm wins over a crossed bid and the certain hazard.
  EXPECT_EQ(model.revocation(0, 0.1, 0.5), RevocationKind::Storm);

  cfg.storm_rate = 0.0;
  const RevocationModel no_storm(cfg, 5);
  EXPECT_EQ(no_storm.revocation(0, 0.1, 0.5), RevocationKind::BidCross);
  EXPECT_EQ(no_storm.revocation(0, 0.1, 0.05), RevocationKind::Hazard);
}

TEST(RevocationModel, InterruptionFractionsStayOffSlotEdges) {
  RevocationConfig cfg = RevocationConfig::storm();
  const RevocationModel model(cfg, 500);
  for (std::size_t t = 0; t < 500; ++t) {
    EXPECT_GE(model.interruption_fraction(t), 0.05);
    EXPECT_LT(model.interruption_fraction(t), 0.95);
  }
}

TEST(RevocationModel, PreservedWorkFollowsCheckpointArithmetic) {
  RevocationConfig cfg;
  cfg.checkpoint_interval = 0.25;
  const RevocationModel model(cfg, 1);
  EXPECT_DOUBLE_EQ(model.preserved_work(0.10), 0.0);
  EXPECT_DOUBLE_EQ(model.preserved_work(0.25), 0.25);
  EXPECT_DOUBLE_EQ(model.preserved_work(0.60), 0.5);
  EXPECT_DOUBLE_EQ(model.preserved_work(0.99), 0.75);

  cfg.checkpoint_interval = 1.0;  // no intra-slot checkpoints
  const RevocationModel none(cfg, 1);
  EXPECT_DOUBLE_EQ(none.preserved_work(0.9), 0.0);  // whole partial lost
}

TEST(RevocationModel, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(RevocationKind::BidCross), "bid-cross");
  EXPECT_STREQ(to_string(RevocationKind::Hazard), "hazard");
  EXPECT_STREQ(to_string(RevocationKind::Storm), "storm");
}

// --- trace-carried revocation events ---------------------------------

TEST(SpotTraceRevocations, MarkersSurviveCsvRoundTrip) {
  std::vector<rrp::ts::Tick> ticks = {
      {0.0, 0.05}, {1.5, 0.06}, {3.25, 0.07}, {5.0, 0.04}};
  std::vector<RevocationMarker> markers = {{1, false}, {3, true}};
  const SpotTrace trace(VmClass::C1Medium, ticks, markers);
  const std::string path = rrp::testing::temp_path("roundtrip.csv");
  trace.save_csv(path);
  const SpotTrace loaded = SpotTrace::load_csv(path, VmClass::C1Medium);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.revocations().size(), 2u);
  EXPECT_EQ(loaded.revocations()[0].tick_index, 1u);
  EXPECT_FALSE(loaded.revocations()[0].storm);
  EXPECT_EQ(loaded.revocations()[1].tick_index, 3u);
  EXPECT_TRUE(loaded.revocations()[1].storm);
}

TEST(SpotTraceRevocations, HourlyViewMapsMarkersAndStormDominates) {
  std::vector<rrp::ts::Tick> ticks = {
      {0.0, 0.05}, {1.2, 0.06}, {1.8, 0.07}, {4.5, 0.04}};
  // Hour 1 carries both a single reclaim and a storm: Storm must win.
  std::vector<RevocationMarker> markers = {{1, false}, {2, true}, {3, false}};
  const SpotTrace trace(VmClass::C1Medium, ticks, markers);
  const auto hourly = trace.hourly_revocations(0, 6);
  ASSERT_EQ(hourly.size(), 6u);
  EXPECT_EQ(hourly[0], HourlyRevocation::None);
  EXPECT_EQ(hourly[1], HourlyRevocation::Storm);
  EXPECT_EQ(hourly[4], HourlyRevocation::Single);
  EXPECT_EQ(hourly[5], HourlyRevocation::None);
}

TEST(SpotTraceRevocations, HourlyMaxSeesIntraSlotSpikes) {
  // LOCF hourly sees 0.05 for hour 0; the intra-hour spike to 0.30 must
  // surface in hourly_max (this is what bid-cross checks against).
  std::vector<rrp::ts::Tick> ticks = {{0.0, 0.05}, {0.4, 0.30}, {0.9, 0.05}};
  const SpotTrace trace(VmClass::C1Medium, ticks);
  const auto mx = trace.hourly_max(0, 2);
  ASSERT_EQ(mx.size(), 2u);
  EXPECT_DOUBLE_EQ(mx[0], 0.30);
  EXPECT_DOUBLE_EQ(mx[1], 0.05);  // LOCF floor, no updates in hour 1
}

TEST(SpotTraceRevocations, ConstructorRejectsBadMarkers) {
  std::vector<rrp::ts::Tick> ticks = {{0.0, 0.05}, {1.0, 0.06}};
  std::vector<RevocationMarker> out_of_range = {{5, false}};
  EXPECT_THROW(SpotTrace(VmClass::C1Medium, ticks, out_of_range),
               rrp::ContractViolation);
  std::vector<RevocationMarker> unsorted = {{1, false}, {0, true}};
  EXPECT_THROW(SpotTrace(VmClass::C1Medium, ticks, unsorted),
               rrp::ContractViolation);
}

TEST(SpotTraceRevocations, GeneratorEmitsMarkersWhenConfigured) {
  TraceGeneratorConfig cfg = default_config(VmClass::C1Medium);
  cfg.days = 60.0;
  cfg.revocations_per_day = 0.5;
  cfg.storms_per_day = 0.2;
  rrp::Rng rng(17);
  const SpotTrace trace = generate_trace(VmClass::C1Medium, cfg, rng);
  EXPECT_FALSE(trace.revocations().empty());
  bool any_storm = false, any_single = false;
  for (const RevocationMarker& m : trace.revocations()) {
    ASSERT_LT(m.tick_index, trace.ticks().size());
    (m.storm ? any_storm : any_single) = true;
  }
  EXPECT_TRUE(any_storm);
  EXPECT_TRUE(any_single);
}

TEST(SpotTraceRevocations, GeneratorDefaultsEmitNone) {
  const SpotTrace trace = generate_trace(VmClass::C1Medium, 2012);
  EXPECT_TRUE(trace.revocations().empty());
}

}  // namespace
