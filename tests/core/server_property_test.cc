// Parameterized property sweeps over the heterogeneous server: the
// aggregation invariants must hold for any width ladder, aggregation mode
// and round composition.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "src/fed/shard/sharded_server.h"

namespace hetefedrec {
namespace {

constexpr size_t kItems = 18;

using Params = std::tuple<std::vector<size_t>, AggregationMode>;

class ServerPropertyTest : public testing::TestWithParam<Params> {
 protected:
  ShardedServer NewServer(bool shared = true) const {
    ShardedServer::Options opt;
    opt.widths = std::get<0>(GetParam());
    opt.num_items = kItems;
    opt.aggregation = std::get<1>(GetParam());
    opt.shared_aggregation = shared;
    opt.seed = 11;
    return ShardedServer(opt);
  }

  static std::vector<LocalTaskSpec> Tasks(size_t group,
                                          const std::vector<size_t>& w) {
    std::vector<LocalTaskSpec> tasks;
    for (size_t t = 0; t <= group; ++t) tasks.push_back({t, w[t]});
    return tasks;
  }

  static LocalUpdateResult Update(const ShardedServer& server,
                                  const std::vector<LocalTaskSpec>& tasks,
                                  double value) {
    LocalUpdateResult r;
    // Every row, as the dense reference trainer uploads.
    r.v_delta.width = tasks.back().width;
    r.v_delta.rows.resize(kItems);
    std::iota(r.v_delta.rows.begin(), r.v_delta.rows.end(), 0u);
    r.v_delta.data.assign(kItems * tasks.back().width, value);
    for (const auto& t : tasks) {
      r.theta_deltas.push_back(
          FeedForwardNet::ZerosLike(server.theta(t.slot)));
    }
    return r;
  }
};

TEST_P(ServerPropertyTest, PrefixInvariantSurvivesRandomRounds) {
  const auto& widths = std::get<0>(GetParam());
  ShardedServer server = NewServer();
  Rng rng(13);
  for (int round = 0; round < 5; ++round) {
    server.BeginRound();
    int n = 1 + static_cast<int>(rng.UniformInt(6));
    for (int c = 0; c < n; ++c) {
      size_t group = rng.UniformInt(widths.size());
      auto tasks = Tasks(group, widths);
      server.UploadDelta(tasks,
                        Update(server, tasks, rng.Uniform(-2.0, 2.0)));
    }
    server.FinishRound();
    // Eq. 10: every smaller table equals the prefix of every larger one.
    for (size_t a = 0; a < server.num_slots(); ++a) {
      for (size_t b = a + 1; b < server.num_slots(); ++b) {
        for (size_t r = 0; r < kItems; ++r) {
          for (size_t c = 0; c < server.width(a); ++c) {
            ASSERT_DOUBLE_EQ(server.table(a)(r, c), server.table(b)(r, c))
                << "slots " << a << "/" << b << " at (" << r << "," << c
                << ")";
          }
        }
      }
    }
  }
}

TEST_P(ServerPropertyTest, ZeroUpdatesLeaveParametersUnchanged) {
  const auto& widths = std::get<0>(GetParam());
  ShardedServer server = NewServer();
  std::vector<Matrix> before;
  for (size_t s = 0; s < server.num_slots(); ++s) {
    before.push_back(server.table(s));
  }
  server.BeginRound();
  for (size_t group = 0; group < widths.size(); ++group) {
    auto tasks = Tasks(group, widths);
    server.UploadDelta(tasks, Update(server, tasks, 0.0));
  }
  server.FinishRound();
  for (size_t s = 0; s < server.num_slots(); ++s) {
    for (size_t i = 0; i < before[s].data().size(); ++i) {
      EXPECT_DOUBLE_EQ(server.table(s).data()[i], before[s].data()[i]);
    }
  }
}

TEST_P(ServerPropertyTest, AggregationIsOrderInvariant) {
  const auto& widths = std::get<0>(GetParam());
  auto run = [&](bool reversed) {
    ShardedServer server = NewServer();
    std::vector<std::pair<size_t, double>> clients = {
        {0, 0.5}, {widths.size() - 1, -1.0}, {0, 2.0}};
    if (reversed) std::reverse(clients.begin(), clients.end());
    server.BeginRound();
    for (auto [group, value] : clients) {
      auto tasks = Tasks(group, widths);
      server.UploadDelta(tasks, Update(server, tasks, value));
    }
    server.FinishRound();
    return server.table(server.num_slots() - 1);
  };
  Matrix forward = run(false);
  Matrix backward = run(true);
  for (size_t i = 0; i < forward.data().size(); ++i) {
    EXPECT_NEAR(forward.data()[i], backward.data()[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthLadders, ServerPropertyTest,
    testing::Combine(
        testing::Values(std::vector<size_t>{2, 4, 8},
                        std::vector<size_t>{8, 16, 32},
                        std::vector<size_t>{1, 2, 3},
                        std::vector<size_t>{3, 5, 9, 17},
                        std::vector<size_t>{4}),
        testing::Values(AggregationMode::kSum, AggregationMode::kMean)),
    [](const auto& info) {
      std::string name;
      for (size_t w : std::get<0>(info.param)) {
        name += std::to_string(w) + "_";
      }
      name += std::get<1>(info.param) == AggregationMode::kSum ? "Sum"
                                                               : "Mean";
      return name;
    });

}  // namespace
}  // namespace hetefedrec
