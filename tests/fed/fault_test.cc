#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/fed/fault/admission.h"
#include "src/fed/fault/client_gate.h"
#include "src/fed/fault/fault_injector.h"

namespace hetefedrec {
namespace {

FaultOptions AllFaults(uint64_t seed) {
  FaultOptions o;
  o.upload_loss = 0.1;
  o.download_loss = 0.1;
  o.crash = 0.1;
  o.duplicate = 0.1;
  o.corrupt = 0.1;
  o.seed = seed;
  return o;
}

// Rows 0..rows-1 of a client delta, every value `value`.
LocalUpdateResult RowUpdate(size_t rows, size_t width, double value) {
  LocalUpdateResult u;
  u.v_delta.width = width;
  for (size_t r = 0; r < rows; ++r) {
    u.v_delta.rows.push_back(static_cast<uint32_t>(r));
    for (size_t d = 0; d < width; ++d) u.v_delta.data.push_back(value);
  }
  return u;
}

TEST(FaultInjectorTest, OffByDefault) {
  FaultInjector inj{FaultOptions{}};
  EXPECT_FALSE(inj.any());
  EXPECT_EQ(inj.Draw(3, 17), FaultKind::kNone);
}

TEST(FaultInjectorTest, DeterministicAndKeySensitive) {
  FaultInjector a{AllFaults(41)};
  FaultInjector b{AllFaults(41)};
  bool any_fault = false;
  bool key_matters = false;
  for (UserId u = 0; u < 64; ++u) {
    for (uint64_t key = 0; key < 32; ++key) {
      EXPECT_EQ(a.Draw(u, key), b.Draw(u, key));
      // Draw is const: repeated draws never advance hidden state.
      EXPECT_EQ(a.Draw(u, key), a.Draw(u, key));
      if (a.Draw(u, key) != FaultKind::kNone) any_fault = true;
      if (a.Draw(u, key) != a.Draw(u, key + 1)) key_matters = true;
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(key_matters);
}

TEST(FaultInjectorTest, SeedChangesDraws) {
  FaultInjector a{AllFaults(41)};
  FaultInjector b{AllFaults(42)};
  int diffs = 0;
  for (UserId u = 0; u < 64; ++u) {
    for (uint64_t key = 0; key < 8; ++key) {
      if (a.Draw(u, key) != b.Draw(u, key)) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjectorTest, RatesPartitionTheDraw) {
  // With a 50% total fault rate, observed kind frequencies should land
  // near the configured 10% segments over a few thousand draws.
  FaultInjector inj{AllFaults(7)};
  int counts[6] = {0, 0, 0, 0, 0, 0};
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    counts[static_cast<int>(inj.Draw(i % 97, i / 97))]++;
  }
  for (FaultKind k : {FaultKind::kDownloadLoss, FaultKind::kCrash,
                      FaultKind::kUploadLoss, FaultKind::kDuplicate,
                      FaultKind::kCorrupt}) {
    const double frac =
        static_cast<double>(counts[static_cast<int>(k)]) / kDraws;
    EXPECT_NEAR(frac, 0.1, 0.02);
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / kDraws, 0.5, 0.03);
}

TEST(FaultInjectorTest, CorruptIsDeterministicAndBreaksTheUpdate) {
  FaultInjector inj{AllFaults(11)};
  bool saw_nonfinite = false;
  bool saw_large = false;
  for (uint64_t key = 0; key < 32; ++key) {
    LocalUpdateResult u1 = RowUpdate(4, 8, 0.5);
    LocalUpdateResult u2 = RowUpdate(4, 8, 0.5);
    const CorruptMode m1 = inj.Corrupt(5, key, &u1);
    const CorruptMode m2 = inj.Corrupt(5, key, &u2);
    EXPECT_EQ(m1, m2);
    ASSERT_EQ(u1.v_delta.data.size(), u2.v_delta.data.size());
    for (size_t i = 0; i < u1.v_delta.data.size(); ++i) {
      const double a = u1.v_delta.data[i];
      const double b = u2.v_delta.data[i];
      EXPECT_TRUE((std::isnan(a) && std::isnan(b)) || a == b);
    }
    if (m1 == CorruptMode::kNaN) {
      saw_nonfinite = true;
      EXPECT_TRUE(std::isnan(u1.v_delta.data[0]));
    } else if (m1 == CorruptMode::kInf) {
      saw_nonfinite = true;
      EXPECT_TRUE(std::isinf(u1.v_delta.data[0]));
    } else {
      saw_large = true;
      EXPECT_DOUBLE_EQ(u1.v_delta.data[0], 500.0);
    }
  }
  EXPECT_TRUE(saw_nonfinite);
  EXPECT_TRUE(saw_large);
}

TEST(FaultInjectorTest, CorruptFullRowUpdate) {
  // Every row of a 4-item table, as the dense reference trainer uploads.
  FaultInjector inj{AllFaults(11)};
  LocalUpdateResult u = RowUpdate(4, 8, 0.25);
  inj.Corrupt(3, 0, &u);
  bool changed = false;
  for (size_t i = 0; i < u.v_delta.data.size() && !changed; ++i) {
    changed = !(u.v_delta.data[i] == 0.25);
  }
  EXPECT_TRUE(changed);
}

BackoffOptions FastBackoff() {
  BackoffOptions o;
  o.retry_base_seconds = 1.0;
  o.retry_cap_seconds = 8.0;
  o.quarantine_base_seconds = 10.0;
  o.quarantine_cap_seconds = 40.0;
  o.multiplier = 2.0;
  o.jitter = 0.0;  // exact delays for the growth assertions below
  o.retry_max = 4;
  o.seed = 5;
  return o;
}

TEST(ClientGateTest, StartsReady) {
  ClientGate gate(4, FastBackoff());
  for (UserId u = 0; u < 4; ++u) EXPECT_TRUE(gate.Ready(u, 0.0));
}

TEST(ClientGateTest, BackoffGrowsExponentiallyAndCaps) {
  ClientGate gate(2, FastBackoff());
  // fails=1 -> 1s, fails=2 -> 2s, fails=3 -> 4s (then retry_max hits).
  EXPECT_TRUE(gate.RetryAfterFailure(0, 100.0));
  EXPECT_FALSE(gate.Ready(0, 100.5));
  EXPECT_TRUE(gate.Ready(0, 101.0));
  EXPECT_TRUE(gate.RetryAfterFailure(0, 101.0));
  EXPECT_FALSE(gate.Ready(0, 102.5));
  EXPECT_TRUE(gate.Ready(0, 103.0));
  EXPECT_TRUE(gate.RetryAfterFailure(0, 103.0));
  EXPECT_TRUE(gate.Ready(0, 107.0));
  // Client 1 is untouched throughout.
  EXPECT_TRUE(gate.Ready(1, 100.0));
}

TEST(ClientGateTest, GivesUpAtRetryMaxAndResetsStreak) {
  ClientGate gate(1, FastBackoff());
  EXPECT_TRUE(gate.RetryAfterFailure(0, 0.0));
  EXPECT_TRUE(gate.RetryAfterFailure(0, 1.0));
  EXPECT_TRUE(gate.RetryAfterFailure(0, 3.0));
  // Fourth consecutive failure = retry_max: give up, immediately ready,
  // and the streak restarts from the base delay.
  EXPECT_FALSE(gate.RetryAfterFailure(0, 7.0));
  EXPECT_TRUE(gate.Ready(0, 7.0));
  EXPECT_TRUE(gate.RetryAfterFailure(0, 7.0));
  EXPECT_TRUE(gate.Ready(0, 8.0));
}

TEST(ClientGateTest, SuccessClearsTheStreak) {
  ClientGate gate(1, FastBackoff());
  EXPECT_TRUE(gate.RetryAfterFailure(0, 0.0));
  EXPECT_TRUE(gate.RetryAfterFailure(0, 1.0));
  gate.OnSuccess(0);
  // Next failure restarts at the base delay (1s), not 4s.
  EXPECT_TRUE(gate.RetryAfterFailure(0, 10.0));
  EXPECT_TRUE(gate.Ready(0, 11.0));
}

TEST(ClientGateTest, QuarantineUsesLongerScheduleAndNeverGivesUp) {
  ClientGate gate(1, FastBackoff());
  gate.Quarantine(0, 0.0);
  EXPECT_FALSE(gate.Ready(0, 9.0));
  EXPECT_TRUE(gate.Ready(0, 10.0));
  // Quarantines keep growing past retry_max without dropping the client.
  for (int i = 0; i < 6; ++i) gate.Quarantine(0, 100.0);
  EXPECT_FALSE(gate.Ready(0, 139.0));
  EXPECT_TRUE(gate.Ready(0, 140.0));  // capped at 40s
}

TEST(ClientGateTest, JitterIsDeterministic) {
  BackoffOptions o = FastBackoff();
  o.jitter = 0.5;
  ClientGate a(3, o), b(3, o);
  a.RetryAfterFailure(1, 5.0);
  b.RetryAfterFailure(1, 5.0);
  for (double t : {5.5, 6.0, 6.25, 6.5, 7.0}) {
    EXPECT_EQ(a.Ready(1, t), b.Ready(1, t));
  }
}

TEST(ClientGateTest, ExportRestoreRoundTrip) {
  BackoffOptions o = FastBackoff();
  o.jitter = 0.5;
  ClientGate a(4, o);
  a.RetryAfterFailure(0, 1.0);
  a.RetryAfterFailure(0, 3.0);
  a.Quarantine(2, 5.0);
  const std::vector<uint64_t> packed = a.Export();
  EXPECT_EQ(packed.size(), 4u * 3u);

  ClientGate b(4, o);
  b.Restore(packed);
  // Identical observable state *and* identical future draws (the cumulative
  // jitter counter round-trips).
  for (UserId u = 0; u < 4; ++u) {
    for (double t : {0.0, 2.0, 4.0, 8.0, 16.0}) {
      EXPECT_EQ(a.Ready(u, t), b.Ready(u, t));
    }
  }
  EXPECT_EQ(a.RetryAfterFailure(0, 20.0), b.RetryAfterFailure(0, 20.0));
  EXPECT_EQ(a.Export(), b.Export());
}

AdmissionOptions StrictAdmission() {
  AdmissionOptions o;
  o.max_row_norm = 1.0;
  o.outlier_z = 3.5;
  o.outlier_window = 32;
  o.outlier_min_history = 4;
  return o;
}

TEST(AdmissionTest, AcceptsCleanUpdate) {
  AdmissionController ctl(2, StrictAdmission());
  LocalUpdateResult u = RowUpdate(2, 4, 0.1);
  const AdmissionDecision d = ctl.Admit(0, &u);
  EXPECT_EQ(d.verdict, AdmissionVerdict::kAccept);
  EXPECT_EQ(d.rows_clipped, 0u);
  EXPECT_NEAR(d.update_norm, std::sqrt(8 * 0.01), 1e-12);
}

TEST(AdmissionTest, RejectsNonFiniteAnywhere) {
  AdmissionController ctl(1, StrictAdmission());
  LocalUpdateResult u = RowUpdate(2, 4, 0.1);
  u.v_delta.data[5] = std::nan("");
  EXPECT_EQ(ctl.Admit(0, &u).verdict, AdmissionVerdict::kRejectNonFinite);

  LocalUpdateResult v = RowUpdate(2, 4, 0.1);
  v.theta_deltas.emplace_back(8, std::vector<size_t>{4, 4});
  v.theta_deltas[0].weight(0)(0, 0) =
      std::numeric_limits<double>::infinity();
  EXPECT_EQ(ctl.Admit(0, &v).verdict, AdmissionVerdict::kRejectNonFinite);
}

TEST(AdmissionTest, ClipsOversizedRowsInPlace) {
  AdmissionController ctl(1, StrictAdmission());
  LocalUpdateResult u = RowUpdate(3, 4, 0.1);
  for (size_t d = 0; d < 4; ++d) u.v_delta.data[4 + d] = 10.0;  // row 1
  const AdmissionDecision dec = ctl.Admit(0, &u);
  EXPECT_EQ(dec.verdict, AdmissionVerdict::kAccept);
  EXPECT_EQ(dec.rows_clipped, 1u);
  double sq = 0.0;
  for (size_t d = 0; d < 4; ++d) {
    sq += u.v_delta.data[4 + d] * u.v_delta.data[4 + d];
  }
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-12);
  // Untouched rows stay bit-identical.
  EXPECT_DOUBLE_EQ(u.v_delta.data[0], 0.1);
}

TEST(AdmissionTest, OutlierGateRejectsOnlyAfterHistoryWarmsUp) {
  AdmissionOptions o = StrictAdmission();
  o.max_row_norm = 0.0;  // isolate the z-gate
  AdmissionController ctl(1, o);

  // Before min_history accepted norms exist, even a huge update passes.
  LocalUpdateResult big = RowUpdate(2, 4, 50.0);
  EXPECT_EQ(ctl.Admit(0, &big).verdict, AdmissionVerdict::kAccept);

  AdmissionController warm(1, o);
  for (int i = 0; i < 8; ++i) {
    LocalUpdateResult u = RowUpdate(2, 4, 0.1 + 0.01 * i);
    ASSERT_EQ(warm.Admit(0, &u).verdict, AdmissionVerdict::kAccept);
  }
  LocalUpdateResult outlier = RowUpdate(2, 4, 50.0);
  EXPECT_EQ(warm.Admit(0, &outlier).verdict, AdmissionVerdict::kRejectOutlier);
  // Below-median updates are never outliers (one-sided gate).
  LocalUpdateResult tiny = RowUpdate(2, 4, 1e-6);
  EXPECT_EQ(warm.Admit(0, &tiny).verdict, AdmissionVerdict::kAccept);
  // The rejection did not pollute the window: normal updates still pass.
  LocalUpdateResult normal = RowUpdate(2, 4, 0.12);
  EXPECT_EQ(warm.Admit(0, &normal).verdict, AdmissionVerdict::kAccept);
}

TEST(AdmissionTest, SlotsHaveIndependentWindows) {
  AdmissionOptions o = StrictAdmission();
  o.max_row_norm = 0.0;
  AdmissionController ctl(2, o);
  for (int i = 0; i < 8; ++i) {
    LocalUpdateResult u = RowUpdate(2, 4, 0.1);
    ASSERT_EQ(ctl.Admit(0, &u).verdict, AdmissionVerdict::kAccept);
  }
  // Slot 1 has no history, so the same huge norm is accepted there.
  LocalUpdateResult big0 = RowUpdate(2, 4, 50.0);
  LocalUpdateResult big1 = RowUpdate(2, 4, 50.0);
  EXPECT_EQ(ctl.Admit(0, &big0).verdict, AdmissionVerdict::kRejectOutlier);
  EXPECT_EQ(ctl.Admit(1, &big1).verdict, AdmissionVerdict::kAccept);
}

TEST(AdmissionTest, WindowIsBoundedAndRoundTrips) {
  AdmissionOptions o;
  o.outlier_z = 3.5;
  o.outlier_window = 8;
  o.outlier_min_history = 2;
  AdmissionController ctl(1, o);
  for (int i = 0; i < 20; ++i) {
    LocalUpdateResult u = RowUpdate(1, 4, 0.1 + 0.001 * i);
    ctl.Admit(0, &u);
  }
  const auto history = ctl.ExportHistory();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].size(), 8u);  // trimmed to the window
  // Oldest-first: the last accepted norm is the window's back.
  EXPECT_NEAR(history[0].back(), 2.0 * (0.1 + 0.001 * 19), 1e-12);

  AdmissionController fresh(1, o);
  fresh.RestoreHistory(history);
  LocalUpdateResult probe_a = RowUpdate(1, 4, 50.0);
  LocalUpdateResult probe_b = RowUpdate(1, 4, 50.0);
  EXPECT_EQ(ctl.Admit(0, &probe_a).verdict, fresh.Admit(0, &probe_b).verdict);
}

}  // namespace
}  // namespace hetefedrec
