// Binary checkpoint primitives.
//
// A tiny tagged little-endian format ("HFR1") used to persist matrices and
// whole server states: deploying a trained federated recommender means
// shipping exactly these public parameters to clients. Readers validate
// magic, tags and dimensions so a truncated or foreign file fails loudly
// with a Status instead of corrupting a model.
#ifndef HETEFEDREC_CORE_CHECKPOINT_H_
#define HETEFEDREC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
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
  /// Length-prefixed vector of raw uint64 words (format v2, run states).
  /// Doubles ride along as bit patterns; see core/run_state.cc.
  kRaw64 = 4,
  kEnd = 0xFFFFFFFF,
};

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

/// Reads a meta record; returns (key, value).
StatusOr<std::pair<std::string, std::string>> ReadMeta(std::istream* in);

/// Writes the end-of-checkpoint sentinel.
Status WriteEnd(std::ostream* out);

/// Peeks the next record tag without consuming it.
StatusOr<RecordTag> PeekTag(std::istream* in);

/// Writes one raw-word record (tag + count + count uint64 words).
Status WriteU64Vector(std::ostream* out, const std::vector<uint64_t>& words);

/// Reads a record written by WriteU64Vector.
StatusOr<std::vector<uint64_t>> ReadU64Vector(std::istream* in);

/// Writes one FeedForwardNet record (layer count + per-layer matrices).
Status WriteFfn(std::ostream* out, const FeedForwardNet& net);

/// Reads a FeedForwardNet record written by WriteFfn.
StatusOr<FeedForwardNet> ReadFfn(std::istream* in);

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
