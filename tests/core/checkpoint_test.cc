#include "src/core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/fed/shard/sharded_server.h"
#include "src/math/init.h"

namespace hetefedrec {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  InitNormal(&m, 1.0, &rng);
  return m;
}

TEST(CheckpointTest, MatrixRoundTripBitExact) {
  Matrix m = RandomMatrix(7, 5, 1);
  std::stringstream ss;
  ASSERT_TRUE(WriteMatrix(&ss, m).ok());
  auto r = ReadMatrix(&ss);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->SameShape(m));
  for (size_t i = 0; i < m.data().size(); ++i) {
    EXPECT_EQ(r->data()[i], m.data()[i]);  // bit exact, no tolerance
  }
}

TEST(CheckpointTest, MetaRoundTrip) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMeta(&ss, "base_model", "ncf").ok());
  const std::string bytes = ss.str();
  auto r = ReadMeta(&ss, "base_model");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "ncf");
  std::stringstream other(bytes);
  EXPECT_EQ(ReadMeta(&other, "num_slots").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, HeaderValidation) {
  std::stringstream ss;
  ASSERT_TRUE(WriteCheckpointHeader(&ss).ok());
  EXPECT_TRUE(ReadCheckpointHeader(&ss).ok());

  std::stringstream bad("NOPE");
  EXPECT_FALSE(ReadCheckpointHeader(&bad).ok());
}

TEST(CheckpointTest, TruncatedMatrixFails) {
  Matrix m = RandomMatrix(4, 4, 2);
  std::stringstream ss;
  ASSERT_TRUE(WriteMatrix(&ss, m).ok());
  std::string bytes = ss.str();
  std::stringstream cut(bytes.substr(0, bytes.size() / 2));
  auto r = ReadMatrix(&cut);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, WrongTagFails) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMeta(&ss, "k", "v").ok());
  EXPECT_FALSE(ReadMatrix(&ss).ok());
}

TEST(CheckpointTest, FfnRoundTripPreservesArchitectureAndOutputs) {
  Rng rng(3);
  FeedForwardNet net(12, {8, 8});
  net.InitXavier(&rng);
  std::stringstream ss;
  ASSERT_TRUE(WriteFfn(&ss, net).ok());
  auto r = ReadFfn(&ss);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->input_dim(), 12u);
  EXPECT_EQ(r->num_layers(), 3u);
  std::vector<double> x(12, 0.25);
  EXPECT_EQ(r->Forward(x.data(), nullptr), net.Forward(x.data(), nullptr));
}

TEST(CheckpointTest, ServerSaveLoadRoundTrip) {
  ShardedServer::Options opt;
  opt.widths = {4, 8, 16};
  opt.num_items = 25;
  opt.seed = 5;
  ShardedServer server(opt);

  std::string path = TempPath("server_ckpt.bin");
  ASSERT_TRUE(SaveServerCheckpoint(path, server, "lightgcn").ok());
  auto ckpt = LoadServerCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->base_model_name, "lightgcn");
  ASSERT_EQ(ckpt->tables.size(), 3u);
  ASSERT_EQ(ckpt->thetas.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(ckpt->tables[s].SameShape(server.table(s)));
    for (size_t i = 0; i < ckpt->tables[s].data().size(); ++i) {
      EXPECT_EQ(ckpt->tables[s].data()[i], server.table(s).data()[i]);
    }
    EXPECT_EQ(ckpt->thetas[s].ParamCount(), server.theta(s).ParamCount());
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadMissingFileFails) {
  auto r = LoadServerCheckpoint(TempPath("no_such_ckpt.bin"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, LoadForeignFileFails) {
  std::string path = TempPath("foreign.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint at all, not even close";
  }
  auto r = LoadServerCheckpoint(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedServerCheckpointFails) {
  ShardedServer::Options opt;
  opt.widths = {4};
  opt.num_items = 10;
  opt.seed = 7;
  ShardedServer server(opt);
  std::string path = TempPath("trunc_ckpt.bin");
  ASSERT_TRUE(SaveServerCheckpoint(path, server, "ncf").ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  // Every proper prefix, at a record boundary or inside a record, fails.
  for (size_t n = 0; n < bytes.size(); ++n) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(n));
    }
    EXPECT_FALSE(LoadServerCheckpoint(path).ok())
        << "prefix of " << n << " bytes";
  }
  std::remove(path.c_str());
}

// --- hand-built streams: malformed records fail with a Status ------------

void PutU32(std::ostream* out, uint32_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof v);
}

void PutU64(std::ostream* out, uint64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof v);
}

void PutMatrixHeader(std::ostream* out, uint64_t rows, uint64_t cols) {
  PutU32(out, static_cast<uint32_t>(RecordTag::kMatrix));
  PutU64(out, rows);
  PutU64(out, cols);
}

TEST(CheckpointTest, OversizedMatrixDimensionsFailWithoutWrapping) {
  // 2^62 x 4 wraps to 0 elements when multiplied first; each dimension
  // alone exceeds the cap. No payload follows any of these headers.
  const std::pair<uint64_t, uint64_t> shapes[] = {
      {1ull << 62, 4},
      {4, 1ull << 62},
      {1ull << 32, 1ull << 32},
      {~0ull, ~0ull},
      {(1ull << 27) + 1, 0},
      {0, (1ull << 27) + 1},
      {1ull << 14, (1ull << 13) + 1},
  };
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(::testing::Message() << rows << " x " << cols);
    std::stringstream ss;
    PutMatrixHeader(&ss, rows, cols);
    auto r = ReadMatrix(&ss);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // A plausible header is accepted, and the missing payload is what fails.
  std::stringstream ss;
  PutMatrixHeader(&ss, 3, 4);
  auto r = ReadMatrix(&ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, EmptyFfnLayerFails) {
  // A zero-row first weight would reach the network constructor, whose
  // check aborts; the reader must refuse it first.
  for (const auto& [rows, cols] :
       {std::pair<uint64_t, uint64_t>{0, 8}, {8, 0}}) {
    SCOPED_TRACE(::testing::Message() << rows << " x " << cols);
    std::stringstream ss;
    PutU32(&ss, static_cast<uint32_t>(RecordTag::kFfn));
    PutU64(&ss, 1);
    PutMatrixHeader(&ss, rows, cols);
    PutMatrixHeader(&ss, 1, cols);
    ss.write(std::string(cols * sizeof(double), '\0').data(),
             static_cast<std::streamsize>(cols * sizeof(double)));
    auto r = ReadFfn(&ss);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CheckpointTest, NonNumericSlotCountFails) {
  const std::string path = TempPath("bad_slots.bin");
  for (const std::string& value :
       {std::string(""), std::string("abc"), std::string("3x"),
        std::string(" 3"), std::string("+3"), std::string("-1"),
        std::string("0x3"), std::string("99999999999999999999999"),
        std::string("3\0", 2)}) {
    SCOPED_TRACE("num_slots='" + value + "'");
    std::ostringstream out;
    ASSERT_TRUE(WriteCheckpointHeader(&out).ok());
    ASSERT_TRUE(WriteMeta(&out, "base_model", "ncf").ok());
    ASSERT_TRUE(WriteMeta(&out, "num_slots", value).ok());
    ASSERT_TRUE(WriteEnd(&out).ok());
    ASSERT_TRUE(WriteCheckedFile(path, out.str()).ok());
    auto r = LoadServerCheckpoint(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("num_slots"), std::string::npos)
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetefedrec
