// Sparse/dense equivalence: the sparse row-touched client-update path and
// the multithreaded round executor must be *bit-identical* to the dense
// serial reference — same tables, same thetas, same metrics. These tests
// compare doubles with EXPECT_EQ on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/local_trainer.h"
#include "src/core/trainer.h"
#include "src/fed/shard/sharded_server.h"
#include "src/math/init.h"
#include "tests/core/equivalence_test_util.h"

namespace hetefedrec {
namespace {

constexpr size_t kUsers = 12;
constexpr size_t kItems = 120;

Dataset MakeDataset() {
  std::vector<Interaction> xs;
  for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
    for (int k = 0; k < 10; ++k) {
      xs.push_back({u, static_cast<ItemId>((u * 13 + k * 7) % kItems)});
    }
  }
  return Dataset::FromInteractions(xs, kUsers, kItems).value();
}

void ExpectSameMatrix(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c)) << what << " row " << r << " col " << c;
    }
  }
}

void ExpectSameFfn(const FeedForwardNet& a, const FeedForwardNet& b,
                   const char* what) {
  ASSERT_EQ(a.num_layers(), b.num_layers()) << what;
  for (size_t l = 0; l < a.num_layers(); ++l) {
    ExpectSameMatrix(a.weight(l), b.weight(l), what);
    ExpectSameMatrix(a.bias(l), b.bias(l), what);
  }
}

struct FedFixture {
  ShardedServer server;
  std::vector<ClientState> clients;
  LocalTrainer trainer;

  FedFixture(const Dataset& ds, BaseModel model, bool shared)
      : server([&] {
          ShardedServer::Options o;
          o.widths = {4, 8, 16};
          o.num_items = kItems;
          o.shared_aggregation = shared;
          o.seed = 5;
          return o;
        }()),
        trainer(ds, model) {
    Rng root(9);
    clients.resize(kUsers);
    for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
      Group g = static_cast<Group>(u % 3);
      size_t width = server.width(static_cast<size_t>(u % 3));
      InitClient(&clients[u], u, g, width, 0.1, root);
    }
  }
};

// Runs `rounds` federated rounds over all clients with UDL-style task
// lists, DDR on medium/large clients, and the validation carve-out, and
// returns the server.
void RunRounds(FedFixture* f, const Dataset& ds, bool use_sparse,
               int rounds, AggregationMode agg) {
  (void)ds;
  for (int round = 0; round < rounds; ++round) {
    f->server.BeginRound();
    for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
      const size_t slot = static_cast<size_t>(u % 3);
      std::vector<LocalTaskSpec> tasks;
      std::vector<const FeedForwardNet*> thetas;
      for (size_t t = 0; t <= slot; ++t) {
        tasks.push_back(LocalTaskSpec{t, f->server.width(t)});
        thetas.push_back(&f->server.theta(t));
      }
      LocalTrainerOptions opt;
      opt.local_epochs = 3;
      opt.use_sparse = use_sparse;
      opt.apply_ddr = slot > 0;
      opt.alpha = 1.0;
      opt.ddr_sample_rows = 32;
      opt.validation_fraction = 0.2;
      opt.min_validation_positives = 5;
      LocalUpdateResult up = f->trainer.Train(
          &f->clients[u], f->server.table(slot), thetas, tasks, opt);
      // The dense path uploads every row; the sparse path a subset of the
      // rows it read, ascending.
      if (use_sparse) {
        EXPECT_TRUE(std::is_sorted(up.v_delta.rows.begin(),
                                   up.v_delta.rows.end()));
        EXPECT_TRUE(std::includes(up.read_rows.begin(), up.read_rows.end(),
                                  up.v_delta.rows.begin(),
                                  up.v_delta.rows.end()));
      } else {
        ASSERT_EQ(up.v_delta.num_rows(), kItems);
        for (size_t r = 0; r < kItems; ++r) EXPECT_EQ(up.v_delta.rows[r], r);
      }
      f->server.UploadDelta(tasks, up, agg == AggregationMode::kDataWeighted
                                          ? 10.0
                                          : 1.0);
    }
    f->server.FinishRound();
  }
}

class SparseEquivalenceRounds
    : public ::testing::TestWithParam<std::tuple<BaseModel, bool>> {};

TEST_P(SparseEquivalenceRounds, TablesAndThetasBitIdentical) {
  const BaseModel model = std::get<0>(GetParam());
  const bool shared = std::get<1>(GetParam());
  Dataset ds = MakeDataset();
  FedFixture dense(ds, model, shared);
  FedFixture sparse(ds, model, shared);

  RunRounds(&dense, ds, /*use_sparse=*/false, 3, AggregationMode::kMean);
  RunRounds(&sparse, ds, /*use_sparse=*/true, 3, AggregationMode::kMean);

  for (size_t s = 0; s < dense.server.num_slots(); ++s) {
    ExpectSameMatrix(dense.server.table(s), sparse.server.table(s), "table");
    ExpectSameFfn(dense.server.theta(s), sparse.server.theta(s), "theta");
  }
  for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
    ExpectSameMatrix(dense.clients[u].user_embedding,
                     sparse.clients[u].user_embedding, "user embedding");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, SparseEquivalenceRounds,
    ::testing::Combine(::testing::Values(BaseModel::kNcf,
                                         BaseModel::kLightGcn),
                       ::testing::Values(true, false)));

TEST(SparseEquivalenceRounds, MixedDenseAndSparseClientsAgree) {
  // A round may mix dense and sparse uploads (e.g. staged rollout); the
  // aggregate must match the all-dense reference.
  Dataset ds = MakeDataset();
  FedFixture ref(ds, BaseModel::kNcf, /*shared=*/true);
  FedFixture mixed(ds, BaseModel::kNcf, /*shared=*/true);

  auto run = [&](FedFixture* f, bool mix) {
    f->server.BeginRound();
    for (UserId u = 0; u < static_cast<UserId>(kUsers); ++u) {
      const size_t slot = static_cast<size_t>(u % 3);
      std::vector<LocalTaskSpec> tasks;
      std::vector<const FeedForwardNet*> thetas;
      for (size_t t = 0; t <= slot; ++t) {
        tasks.push_back(LocalTaskSpec{t, f->server.width(t)});
        thetas.push_back(&f->server.theta(t));
      }
      LocalTrainerOptions opt;
      opt.local_epochs = 2;
      opt.use_sparse = mix && (u % 2 == 0);
      LocalUpdateResult up = f->trainer.Train(
          &f->clients[u], f->server.table(slot), thetas, tasks, opt);
      f->server.UploadDelta(tasks, up);
    }
    f->server.FinishRound();
  };
  run(&ref, false);
  run(&mixed, true);
  for (size_t s = 0; s < ref.server.num_slots(); ++s) {
    ExpectSameMatrix(ref.server.table(s), mixed.server.table(s), "table");
  }
}

// --- End-to-end: every method, full ExperimentRunner pipeline -----------

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 2;
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 60;
  cfg.ddr_sample_rows = 64;
  cfg.kd_items = 16;
  cfg.seed = 33;
  return cfg;
}

void ExpectSameCheckpoint(const std::string& path_a,
                          const std::string& path_b) {
  auto a = LoadServerCheckpoint(path_a);
  auto b = LoadServerCheckpoint(path_b);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->tables.size(), b->tables.size());
  for (size_t s = 0; s < a->tables.size(); ++s) {
    ExpectSameMatrix(a->tables[s], b->tables[s], "ckpt table");
    ExpectSameFfn(a->thetas[s], b->thetas[s], "ckpt theta");
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SparseEquivalenceEndToEnd, AllMethodsMatchDenseReference) {
  for (Method method : kAllMethods) {
    ExperimentConfig dense_cfg = SmallConfig();
    dense_cfg.use_sparse_updates = false;
    ExperimentConfig sparse_cfg = SmallConfig();
    sparse_cfg.use_sparse_updates = true;
    const bool federated = method != Method::kStandalone;
    if (federated) {
      dense_cfg.checkpoint_path = "/tmp/hfr_eq_dense.ckpt";
      sparse_cfg.checkpoint_path = "/tmp/hfr_eq_sparse.ckpt";
    }

    auto dense_runner = ExperimentRunner::Create(dense_cfg);
    auto sparse_runner = ExperimentRunner::Create(sparse_cfg);
    ASSERT_TRUE(dense_runner.ok());
    ASSERT_TRUE(sparse_runner.ok());
    ExperimentResult dense_res = (*dense_runner)->Run(method);
    ExperimentResult sparse_res = (*sparse_runner)->Run(method);

    SCOPED_TRACE(MethodName(method));
    ExpectSameEval(dense_res.final_eval, sparse_res.final_eval);
    if (federated) {
      EXPECT_EQ(dense_res.collapse_variance, sparse_res.collapse_variance);
      EXPECT_EQ(dense_res.collapse_cv, sparse_res.collapse_cv);
      // Default accounting keeps the paper's dense upload counts.
      EXPECT_EQ(dense_res.comm.TotalTransmitted(),
                sparse_res.comm.TotalTransmitted());
      ExpectSameCheckpoint(dense_cfg.checkpoint_path,
                           sparse_cfg.checkpoint_path);
    }
  }
}

TEST(SparseEquivalenceEndToEnd, SparseAccountingShrinksUploads) {
  ExperimentConfig cfg = SmallConfig();
  cfg.use_sparse_updates = true;
  cfg.sparse_comm_accounting = true;
  auto runner = ExperimentRunner::Create(cfg);
  ASSERT_TRUE(runner.ok());
  ExperimentResult res = (*runner)->Run(Method::kHeteFedRec);

  ExperimentConfig ref_cfg = SmallConfig();
  ref_cfg.use_sparse_updates = true;
  auto ref_runner = ExperimentRunner::Create(ref_cfg);
  ASSERT_TRUE(ref_runner.ok());
  ExperimentResult ref = (*ref_runner)->Run(Method::kHeteFedRec);

  // Same training outcome, smaller reported upload volume.
  ExpectSameEval(res.final_eval, ref.final_eval);
  EXPECT_LT(res.comm.TotalTransmitted(), ref.comm.TotalTransmitted());
}

TEST(ThreadDeterminism, OneAndFourThreadsBitIdentical) {
  ExperimentConfig serial_cfg = SmallConfig();
  serial_cfg.num_threads = 1;
  serial_cfg.checkpoint_path = "/tmp/hfr_thr1.ckpt";
  ExperimentConfig parallel_cfg = SmallConfig();
  parallel_cfg.num_threads = 4;
  parallel_cfg.checkpoint_path = "/tmp/hfr_thr4.ckpt";

  auto serial = ExperimentRunner::Create(serial_cfg);
  auto parallel = ExperimentRunner::Create(parallel_cfg);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExperimentResult serial_res = (*serial)->Run(Method::kHeteFedRec);
  ExperimentResult parallel_res = (*parallel)->Run(Method::kHeteFedRec);

  ExpectSameEval(serial_res.final_eval, parallel_res.final_eval);
  EXPECT_EQ(serial_res.collapse_variance, parallel_res.collapse_variance);
  EXPECT_EQ(serial_res.comm.TotalTransmitted(),
            parallel_res.comm.TotalTransmitted());
  ExpectSameCheckpoint(serial_cfg.checkpoint_path,
                       parallel_cfg.checkpoint_path);
}

}  // namespace
}  // namespace hetefedrec
