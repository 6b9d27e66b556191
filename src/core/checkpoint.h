// Binary checkpoint primitives.
//
// A tiny tagged little-endian format ("HFR1") used to persist matrices and
// whole server states: deploying a trained federated recommender means
// shipping exactly these public parameters to clients. Every file ends in
// an FNV-1a-64 digest of the bytes before it, checked before the records
// are parsed, and readers validate magic, tags and dimensions, so a
// damaged, truncated or foreign file fails with a Status instead of
// corrupting a model.
#ifndef HETEFEDREC_CORE_CHECKPOINT_H_
#define HETEFEDREC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/math/matrix.h"
#include "src/models/ffn.h"
#include "src/util/status.h"

namespace hetefedrec {

/// File magic written at the head of every checkpoint.
inline constexpr char kCheckpointMagic[4] = {'H', 'F', 'R', '1'};

/// Record tags inside a checkpoint stream.
enum class RecordTag : uint32_t {
  kMatrix = 1,
  kFfn = 2,
  kMeta = 3,
  /// Length-prefixed vector of raw uint64 words (the run-state body).
  /// Doubles ride along as bit patterns; see core/run_state.h.
  kRaw64 = 4,
  kEnd = 0xFFFFFFFF,
};

/// FNV-1a 64-bit hash of `bytes`.
uint64_t Fnv1a64(std::string_view bytes);

/// Writes `bytes` and their 8-byte Fnv1a64 digest to `path` through
/// `path`.tmp and a rename, so a crash mid-write leaves the previous file
/// whole.
Status WriteCheckedFile(const std::string& path, const std::string& bytes);

/// Reads all of `path`.
StatusOr<std::string> ReadFileBytes(const std::string& path);

/// Checks the digest WriteCheckedFile appended to `bytes`.
Status VerifyDigest(const std::string& bytes);

/// Writes the checkpoint header.
Status WriteCheckpointHeader(std::ostream* out);

/// Reads and validates the checkpoint header.
Status ReadCheckpointHeader(std::istream* in);

/// Writes one matrix record (tag + rows + cols + row-major doubles).
Status WriteMatrix(std::ostream* out, const Matrix& m);

/// Reads one matrix record written by WriteMatrix.
StatusOr<Matrix> ReadMatrix(std::istream* in);

/// Writes a small key=value string record (model type, widths, seed...).
Status WriteMeta(std::ostream* out, const std::string& key,
                 const std::string& value);

/// Reads a meta record whose key must be `key`; returns its value.
StatusOr<std::string> ReadMeta(std::istream* in, const std::string& key);

/// Writes the end-of-checkpoint sentinel.
Status WriteEnd(std::ostream* out);

/// Reads the end sentinel and the digest after it; nothing may follow.
Status ReadEnd(std::istream* in);

/// Writes one raw-word record (tag + count + count uint64 words).
Status WriteU64Vector(std::ostream* out, const std::vector<uint64_t>& words);

/// Reads a record written by WriteU64Vector.
StatusOr<std::vector<uint64_t>> ReadU64Vector(std::istream* in);

/// Writes one FeedForwardNet record (layer count + per-layer matrices).
Status WriteFfn(std::ostream* out, const FeedForwardNet& net);

/// Reads a FeedForwardNet record written by WriteFfn.
StatusOr<FeedForwardNet> ReadFfn(std::istream* in);

/// Writes every slot's public parameters: a num_slots meta record, then
/// each slot's item table and Θ. Shared by the server checkpoint and the
/// run state.
Status WriteSlots(std::ostream* out, const std::vector<Matrix>& tables,
                  const std::vector<FeedForwardNet>& thetas);

/// Reads what WriteSlots wrote into empty `tables` and `thetas`: 1 to 16
/// slots whose tables share one row count.
Status ReadSlots(std::istream* in, std::vector<Matrix>* tables,
                 std::vector<FeedForwardNet>* thetas);

class ShardedServer;

/// Persists a trained server's public parameters — every slot's item
/// embedding table and preference FFN plus identifying metadata — to
/// `path`. The format is shard-count independent.
Status SaveServerCheckpoint(const std::string& path,
                            const ShardedServer& server,
                            const std::string& base_model_name);

/// \brief A loaded checkpoint: per-slot public parameters.
struct ServerCheckpoint {
  std::string base_model_name;
  std::vector<Matrix> tables;
  std::vector<FeedForwardNet> thetas;
};

/// Loads a checkpoint written by SaveServerCheckpoint.
StatusOr<ServerCheckpoint> LoadServerCheckpoint(const std::string& path);

}  // namespace hetefedrec

#endif  // HETEFEDREC_CORE_CHECKPOINT_H_
