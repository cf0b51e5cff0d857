// Tests of the hardware model: the analytic register-file timing/area fit
// against the paper's published bank values, the FO4 clock rules, and the
// latency scaling that reproduces Table 5's Mem/FU column.
#include <gtest/gtest.h>

#include "hwmodel/characterize.h"
#include "hwmodel/clock.h"
#include "hwmodel/rf_timing.h"

namespace hcrf::hw {
namespace {

TEST(RFTiming, MonotoneInPortsAndCapacity) {
  const BankCharacteristics small = CharacterizeBank(32, {6, 4});
  const BankCharacteristics more_regs = CharacterizeBank(128, {6, 4});
  const BankCharacteristics more_ports = CharacterizeBank(32, {20, 12});
  EXPECT_GT(more_regs.access_ns, small.access_ns);
  EXPECT_GT(more_ports.access_ns, small.access_ns);
  EXPECT_GT(more_regs.area_mlambda2, small.area_mlambda2);
  EXPECT_GT(more_ports.area_mlambda2, small.area_mlambda2);
}

TEST(RFTiming, RejectsDegenerateBanks) {
  EXPECT_THROW(CharacterizeBank(0, {2, 1}), std::invalid_argument);
  EXPECT_THROW(CharacterizeBank(32, {0, 1}), std::invalid_argument);
}

TEST(RFTiming, PaperTableModeReturnsPublishedValues) {
  const auto v = CharacterizeBank(128, {20, 12}, RFModelMode::kPaperTable);
  EXPECT_DOUBLE_EQ(v.access_ns, 1.145);
  EXPECT_DOUBLE_EQ(v.area_mlambda2, 14.91);
  // Unknown shapes fall back to the analytic model.
  const auto w = CharacterizeBank(256, {20, 12}, RFModelMode::kPaperTable);
  EXPECT_GT(w.access_ns, 1.0);
}

// Analytic model accuracy against every bank the paper publishes.
struct BankCase {
  int nregs, reads, writes;
  double access, area;
};

class AnalyticFitTest : public ::testing::TestWithParam<BankCase> {};

TEST_P(AnalyticFitTest, WithinCalibratedTolerance) {
  const BankCase& b = GetParam();
  const BankCharacteristics c =
      CharacterizeBank(b.nregs, {b.reads, b.writes}, RFModelMode::kAnalytic);
  // Access time: fit quality from the calibration (mean 4.1%, max ~20%).
  EXPECT_NEAR(c.access_ns, b.access, 0.21 * b.access)
      << b.nregs << " regs " << b.reads << "R" << b.writes << "W";
  // Area: power-law fit (mean 10%, one outlier at ~56%).
  EXPECT_NEAR(c.area_mlambda2, b.area, 0.60 * b.area);
}

INSTANTIATE_TEST_SUITE_P(
    PaperBanks, AnalyticFitTest,
    ::testing::Values(BankCase{128, 20, 12, 1.145, 14.91},
                      BankCase{64, 20, 12, 1.021, 12.20},
                      BankCase{32, 20, 12, 0.685, 7.50},
                      BankCase{64, 18, 11, 0.943, 10.07},
                      BankCase{32, 7, 6, 0.485, 1.31},
                      BankCase{32, 18, 12, 0.666, 6.61},
                      BankCase{64, 8, 6, 0.493, 1.50},
                      BankCase{64, 11, 7, 0.686, 3.99},
                      BankCase{32, 11, 7, 0.532, 2.44},
                      BankCase{64, 9, 6, 0.626, 2.81},
                      BankCase{32, 9, 7, 0.515, 1.95},
                      BankCase{64, 6, 4, 0.531, 1.30},
                      BankCase{32, 6, 4, 0.475, 1.07},
                      BankCase{32, 5, 3, 0.442, 0.70},
                      BankCase{16, 8, 8, 0.456, 1.57},
                      BankCase{16, 5, 4, 0.393, 0.52},
                      BankCase{16, 12, 8, 0.483, 2.42},
                      BankCase{32, 3, 2, 0.400, 0.30},
                      BankCase{16, 3, 2, 0.360, 0.17},
                      BankCase{16, 12, 12, 0.532, 3.45}));

// Clock/latency rules reproduce the paper's Table 5 rows exactly when fed
// the published access times.
struct ClockCase {
  double access;          // critical (first-level) access time
  double shared_access;   // 0 when no shared level above clusters
  int depth;
  double clock;
  int mem, fu;
  int comm;               // LoadR/StoreR latency
};

class ClockRuleTest : public ::testing::TestWithParam<ClockCase> {};

TEST_P(ClockRuleTest, MatchesTable5) {
  const ClockCase& c = GetParam();
  const int depth = LogicDepthFo4(c.access);
  // Depth within one FO4 of the published value; clock and latencies exact
  // given the published depth.
  EXPECT_NEAR(depth, c.depth, 1);
  EXPECT_NEAR(ClockNs(c.depth), c.clock, 1e-9);
  const LatencyTable lat = ScaleLatencies(c.depth, c.shared_access);
  EXPECT_EQ(lat.load_hit, c.mem);
  EXPECT_EQ(lat.fadd, c.fu);
  EXPECT_EQ(lat.store, c.mem - 1);
  EXPECT_EQ(lat.loadr, c.comm);
  EXPECT_EQ(lat.storer, c.comm);
}

INSTANTIATE_TEST_SUITE_P(
    Table5Rows, ClockRuleTest,
    ::testing::Values(
        ClockCase{1.145, 0.0, 31, 1.181, 2, 4, 1},    // S128
        ClockCase{1.021, 0.0, 27, 1.037, 3, 4, 1},    // S64
        ClockCase{0.685, 0.0, 18, 0.713, 3, 4, 1},    // S32
        ClockCase{0.943, 0.485, 25, 0.965, 3, 4, 1},  // 1C64S32
        ClockCase{0.666, 0.493, 17, 0.677, 3, 4, 1},  // 1C32S64
        ClockCase{0.686, 0.0, 18, 0.713, 3, 4, 1},    // 2C64
        ClockCase{0.532, 0.0, 13, 0.533, 4, 6, 1},    // 2C32
        ClockCase{0.626, 0.493, 16, 0.641, 3, 5, 1},  // 2C64S32
        ClockCase{0.515, 0.510, 13, 0.533, 4, 6, 1},  // 2C32S32
        ClockCase{0.531, 0.0, 13, 0.533, 4, 6, 1},    // 4C64
        ClockCase{0.475, 0.0, 12, 0.497, 4, 6, 1},    // 4C32
        ClockCase{0.442, 0.456, 11, 0.461, 4, 7, 1},  // 4C32S16
        ClockCase{0.393, 0.483, 10, 0.425, 4, 7, 2},  // 4C16S16
        ClockCase{0.400, 0.532, 10, 0.425, 4, 7, 2},  // 8C32S16
        ClockCase{0.360, 0.532, 9, 0.389, 5, 8, 2})); // 8C16S16

TEST(ClockRule, MissLatencyScalesWithClock) {
  // 10 ns miss: S128 clock 1.181 -> 9 cycles; 8C16S16 clock 0.389 -> 26.
  EXPECT_EQ(ScaleLatencies(31, 0.0).load_miss, 9);
  EXPECT_EQ(ScaleLatencies(9, 0.5).load_miss, 26);
}

TEST(Characterize, Table5EndToEnd) {
  // End-to-end with the paper-table bank values: 8C16S16/1-1.
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("8C16S16/1-1"));
  const Characterization c = Characterize(m, RFModelMode::kPaperTable);
  EXPECT_EQ(c.logic_depth_fo4, 9);
  EXPECT_NEAR(c.clock_ns, 0.389, 1e-9);
  EXPECT_NEAR(c.total_area_mlambda2, 8 * 0.17 + 3.45, 1e-9);
  EXPECT_EQ(c.lat.fadd, 8);
  EXPECT_EQ(c.lat.load_hit, 5);
  EXPECT_EQ(c.lat.loadr, 2);  // shared access 0.532 > clock 0.389
}

TEST(Characterize, MonolithicUsesSharedAccess) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("S128"));
  const Characterization c = Characterize(m, RFModelMode::kPaperTable);
  EXPECT_NEAR(c.critical_access_ns, 1.145, 1e-9);
  EXPECT_EQ(c.logic_depth_fo4, 31);
  EXPECT_EQ(c.lat.loadr, 1);  // no hierarchy: comm latency defaults to 1
}

TEST(Characterize, RejectsUnbounded) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("Sinf"));
  EXPECT_THROW(Characterize(m), std::invalid_argument);
}

// Unbounded register files have no hardware realization: Characterize
// throws, and ApplyCharacterization hands the machine back unchanged, so
// no caller has to test the register counts first.
TEST(Characterize, ApplyPassesUnboundedThrough) {
  for (const char* rf : {"Sinf", "4CinfSinf", "4Cinf", "4C16Sinf/2-1"}) {
    SCOPED_TRACE(rf);
    const MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(rf));
    ASSERT_THROW(Characterize(m), std::invalid_argument);
    const MachineConfig out =
        ApplyCharacterization(m, RFModelMode::kPaperTable);
    EXPECT_EQ(out.clock_ns, m.clock_ns);
    EXPECT_TRUE(out.lat == m.lat);
    EXPECT_TRUE(out.rf == m.rf);
  }
}

TEST(Characterize, ApplyUpdatesMachine) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse("4C16S16/2-1"));
  const MachineConfig scaled = ApplyCharacterization(m, RFModelMode::kPaperTable);
  EXPECT_NEAR(scaled.clock_ns, 0.425, 1e-9);
  EXPECT_EQ(scaled.lat.fadd, 7);
  EXPECT_EQ(scaled.lat.loadr, 2);
}

}  // namespace
}  // namespace hcrf::hw
