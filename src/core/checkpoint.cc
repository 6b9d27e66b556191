#include "src/core/checkpoint.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>

#include "src/fed/shard/sharded_server.h"
#include "src/util/logging.h"

namespace hetefedrec {

namespace {

Status WriteRaw(std::ostream* out, const void* data, size_t bytes) {
  out->write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out->good()) return Status::IOError("checkpoint write failed");
  return Status::OK();
}

Status ReadRaw(std::istream* in, void* data, size_t bytes) {
  in->read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (in->gcount() != static_cast<std::streamsize>(bytes)) {
    return Status::IOError("checkpoint truncated");
  }
  return Status::OK();
}

Status WriteU32(std::ostream* out, uint32_t v) {
  return WriteRaw(out, &v, sizeof(v));
}

StatusOr<uint32_t> ReadU32(std::istream* in) {
  uint32_t v = 0;
  HFR_RETURN_NOT_OK(ReadRaw(in, &v, sizeof(v)));
  return v;
}

Status WriteU64(std::ostream* out, uint64_t v) {
  return WriteRaw(out, &v, sizeof(v));
}

StatusOr<uint64_t> ReadU64(std::istream* in) {
  uint64_t v = 0;
  HFR_RETURN_NOT_OK(ReadRaw(in, &v, sizeof(v)));
  return v;
}

Status ExpectTag(std::istream* in, RecordTag expected) {
  auto tag = ReadU32(in);
  if (!tag.ok()) return tag.status();
  if (*tag != static_cast<uint32_t>(expected)) {
    return Status::InvalidArgument(
        "unexpected checkpoint record tag " + std::to_string(*tag));
  }
  return Status::OK();
}

}  // namespace

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Status WriteCheckedFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp);
    HFR_RETURN_NOT_OK(WriteRaw(&out, bytes.data(), bytes.size()));
    HFR_RETURN_NOT_OK(WriteU64(&out, Fnv1a64(bytes)));
    out.close();
    if (!out) return Status::IOError("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (in.bad()) return Status::IOError("cannot read " + path);
  return bytes.str();
}

Status VerifyDigest(const std::string& bytes) {
  uint64_t stored = 0;
  if (bytes.size() < sizeof(stored)) {
    return Status::IOError("checkpoint truncated");
  }
  const size_t body = bytes.size() - sizeof(stored);
  std::memcpy(&stored, bytes.data() + body, sizeof(stored));
  if (stored != Fnv1a64(std::string_view(bytes.data(), body))) {
    return Status::InvalidArgument(
        "checkpoint checksum mismatch: the file is damaged");
  }
  return Status::OK();
}

Status WriteCheckpointHeader(std::ostream* out) {
  return WriteRaw(out, kCheckpointMagic, sizeof(kCheckpointMagic));
}

Status ReadCheckpointHeader(std::istream* in) {
  char magic[4] = {};
  HFR_RETURN_NOT_OK(ReadRaw(in, magic, sizeof(magic)));
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a HeteFedRec checkpoint");
  }
  return Status::OK();
}

Status WriteMatrix(std::ostream* out, const Matrix& m) {
  HFR_RETURN_NOT_OK(WriteU32(out, static_cast<uint32_t>(RecordTag::kMatrix)));
  HFR_RETURN_NOT_OK(WriteU64(out, m.rows()));
  HFR_RETURN_NOT_OK(WriteU64(out, m.cols()));
  return WriteRaw(out, m.data().data(), m.size() * sizeof(double));
}

StatusOr<Matrix> ReadMatrix(std::istream* in) {
  HFR_RETURN_NOT_OK(ExpectTag(in, RecordTag::kMatrix));
  auto rows = ReadU64(in);
  if (!rows.ok()) return rows.status();
  auto cols = ReadU64(in);
  if (!cols.ok()) return cols.status();
  // 1 GiB sanity cap: dimensions beyond any model in this project signal a
  // corrupt stream, not a big model. Each dimension is bounded first, so
  // the product cannot wrap.
  constexpr uint64_t kMaxElements = 1ull << 27;
  if (*rows > kMaxElements || *cols > kMaxElements ||
      *rows * *cols > kMaxElements) {
    return Status::InvalidArgument("checkpoint matrix implausibly large");
  }
  Matrix m(*rows, *cols);
  HFR_RETURN_NOT_OK(ReadRaw(in, m.data().data(), m.size() * sizeof(double)));
  return m;
}

Status WriteMeta(std::ostream* out, const std::string& key,
                 const std::string& value) {
  HFR_RETURN_NOT_OK(WriteU32(out, static_cast<uint32_t>(RecordTag::kMeta)));
  HFR_RETURN_NOT_OK(WriteU64(out, key.size()));
  HFR_RETURN_NOT_OK(WriteRaw(out, key.data(), key.size()));
  HFR_RETURN_NOT_OK(WriteU64(out, value.size()));
  return WriteRaw(out, value.data(), value.size());
}

StatusOr<std::string> ReadMeta(std::istream* in, const std::string& key) {
  HFR_RETURN_NOT_OK(ExpectTag(in, RecordTag::kMeta));
  auto read_string = [in]() -> StatusOr<std::string> {
    auto len = ReadU64(in);
    if (!len.ok()) return len.status();
    if (*len > (1ull << 20)) {
      return Status::InvalidArgument("checkpoint string implausibly large");
    }
    std::string s(*len, '\0');
    HFR_RETURN_NOT_OK(ReadRaw(in, s.data(), s.size()));
    return s;
  };
  auto found = read_string();
  if (!found.ok()) return found.status();
  if (*found != key) {
    return Status::InvalidArgument("checkpoint: expected meta key " + key +
                                   ", got " + *found);
  }
  return read_string();
}

Status WriteEnd(std::ostream* out) {
  return WriteU32(out, static_cast<uint32_t>(RecordTag::kEnd));
}

Status ReadEnd(std::istream* in) {
  HFR_RETURN_NOT_OK(ExpectTag(in, RecordTag::kEnd));
  uint64_t digest = 0;  // verified before parsing (VerifyDigest)
  HFR_RETURN_NOT_OK(ReadRaw(in, &digest, sizeof(digest)));
  if (in->peek() != std::char_traits<char>::eof()) {
    return Status::InvalidArgument("checkpoint has bytes after its end");
  }
  return Status::OK();
}

Status WriteU64Vector(std::ostream* out, const std::vector<uint64_t>& words) {
  HFR_RETURN_NOT_OK(WriteU32(out, static_cast<uint32_t>(RecordTag::kRaw64)));
  HFR_RETURN_NOT_OK(WriteU64(out, words.size()));
  return WriteRaw(out, words.data(), words.size() * sizeof(uint64_t));
}

StatusOr<std::vector<uint64_t>> ReadU64Vector(std::istream* in) {
  HFR_RETURN_NOT_OK(ExpectTag(in, RecordTag::kRaw64));
  auto count = ReadU64(in);
  if (!count.ok()) return count.status();
  // 2 GiB sanity cap, same spirit as the matrix cap: run states pack a few
  // words per client/row, never billions.
  if (*count > (1ull << 28)) {
    return Status::InvalidArgument("checkpoint raw record implausibly large");
  }
  std::vector<uint64_t> words(*count);
  HFR_RETURN_NOT_OK(
      ReadRaw(in, words.data(), words.size() * sizeof(uint64_t)));
  return words;
}

Status WriteFfn(std::ostream* out, const FeedForwardNet& net) {
  HFR_RETURN_NOT_OK(WriteU32(out, static_cast<uint32_t>(RecordTag::kFfn)));
  HFR_RETURN_NOT_OK(WriteU64(out, net.num_layers()));
  for (size_t l = 0; l < net.num_layers(); ++l) {
    HFR_RETURN_NOT_OK(WriteMatrix(out, net.weight(l)));
    HFR_RETURN_NOT_OK(WriteMatrix(out, net.bias(l)));
  }
  return Status::OK();
}

StatusOr<FeedForwardNet> ReadFfn(std::istream* in) {
  HFR_RETURN_NOT_OK(ExpectTag(in, RecordTag::kFfn));
  auto layers = ReadU64(in);
  if (!layers.ok()) return layers.status();
  if (*layers == 0 || *layers > 64) {
    return Status::InvalidArgument("checkpoint FFN layer count implausible");
  }
  std::vector<Matrix> weights, biases;
  for (size_t l = 0; l < *layers; ++l) {
    auto w = ReadMatrix(in);
    if (!w.ok()) return w.status();
    auto b = ReadMatrix(in);
    if (!b.ok()) return b.status();
    weights.push_back(std::move(w).value());
    biases.push_back(std::move(b).value());
  }
  // Reconstruct the architecture from the matrix shapes, then install the
  // parameters. The network constructor rejects an empty layer by aborting,
  // so a stream that claims one is refused here.
  for (const Matrix& w : weights) {
    if (w.rows() == 0 || w.cols() == 0) {
      return Status::InvalidArgument("checkpoint FFN layer is empty");
    }
  }
  std::vector<size_t> hidden;
  for (size_t l = 0; l + 1 < weights.size(); ++l) {
    hidden.push_back(weights[l].cols());
  }
  FeedForwardNet net(weights[0].rows(), hidden);
  for (size_t l = 0; l < weights.size(); ++l) {
    if (!net.weight(l).SameShape(weights[l]) ||
        !net.bias(l).SameShape(biases[l])) {
      return Status::InvalidArgument("checkpoint FFN shapes inconsistent");
    }
    net.weight(l) = std::move(weights[l]);
    net.bias(l) = std::move(biases[l]);
  }
  return net;
}

Status WriteSlots(std::ostream* out, const std::vector<Matrix>& tables,
                  const std::vector<FeedForwardNet>& thetas) {
  HFR_CHECK_EQ(tables.size(), thetas.size());
  HFR_RETURN_NOT_OK(
      WriteMeta(out, "num_slots", std::to_string(tables.size())));
  for (size_t s = 0; s < tables.size(); ++s) {
    HFR_RETURN_NOT_OK(WriteMatrix(out, tables[s]));
    HFR_RETURN_NOT_OK(WriteFfn(out, thetas[s]));
  }
  return Status::OK();
}

Status ReadSlots(std::istream* in, std::vector<Matrix>* tables,
                 std::vector<FeedForwardNet>* thetas) {
  auto value = ReadMeta(in, "num_slots");
  if (!value.ok()) return value.status();
  const std::string& v = *value;
  size_t num_slots = 0;
  const char* end = v.data() + v.size();
  const auto parsed = std::from_chars(v.data(), end, num_slots);
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    return Status::InvalidArgument("checkpoint num_slots is not a whole number");
  }
  if (num_slots == 0 || num_slots > 16) {
    return Status::InvalidArgument("checkpoint slot count implausible");
  }
  for (size_t s = 0; s < num_slots; ++s) {
    auto table = ReadMatrix(in);
    if (!table.ok()) return table.status();
    if (!tables->empty() && table->rows() != tables->front().rows()) {
      return Status::InvalidArgument("checkpoint tables differ in row count");
    }
    auto theta = ReadFfn(in);
    if (!theta.ok()) return theta.status();
    tables->push_back(std::move(table).value());
    thetas->push_back(std::move(theta).value());
  }
  return Status::OK();
}

Status SaveServerCheckpoint(const std::string& path,
                            const ShardedServer& server,
                            const std::string& base_model_name) {
  std::ostringstream out;
  HFR_RETURN_NOT_OK(WriteCheckpointHeader(&out));
  HFR_RETURN_NOT_OK(WriteMeta(&out, "base_model", base_model_name));
  HFR_RETURN_NOT_OK(WriteSlots(&out, server.tables(), server.thetas()));
  HFR_RETURN_NOT_OK(WriteEnd(&out));
  return WriteCheckedFile(path, out.str());
}

StatusOr<ServerCheckpoint> LoadServerCheckpoint(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  HFR_RETURN_NOT_OK(VerifyDigest(*bytes));
  std::istringstream in(std::move(bytes).value());
  HFR_RETURN_NOT_OK(ReadCheckpointHeader(&in));
  ServerCheckpoint ckpt;
  auto base_model = ReadMeta(&in, "base_model");
  if (!base_model.ok()) return base_model.status();
  ckpt.base_model_name = std::move(base_model).value();
  HFR_RETURN_NOT_OK(ReadSlots(&in, &ckpt.tables, &ckpt.thetas));
  HFR_RETURN_NOT_OK(ReadEnd(&in));
  return ckpt;
}

}  // namespace hetefedrec
