// Seeded mutation test of both checkpoint readers: a damaged run state or
// server checkpoint must come back as a non-OK Status, never as a loaded
// state and never as an abort (ctest runs this suite under ASan/UBSan too).
//
// Raw edits — seeded bit flips, every length field set to 0, 2^32, 2^62
// and 2^64-1, NaN payload words — fail the checksum trailer. Edits whose
// trailer is recomputed must still be refused by the parser or by
// ExperimentRunner::Create: the same length edits, and the index,
// block-size and epoch edits that once crashed a resumed run or silently
// changed it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/run_state.h"
#include "src/core/trainer.h"
#include "src/util/rng.h"

namespace hetefedrec {
namespace {

constexpr size_t kTrailerBytes = sizeof(uint64_t);
constexpr uint64_t kLengthValues[] = {0, 1ull << 32, 1ull << 62, ~0ull};

uint64_t GetU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void PutU64(std::string* bytes, size_t at, uint64_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}

std::string FileBytes(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

// `bytes` with its last eight bytes replaced by the digest of the rest: an
// edit a checksum cannot see.
std::string Resealed(std::string bytes) {
  const size_t body = bytes.size() - kTrailerBytes;
  PutU64(&bytes, body, Fnv1a64(std::string_view(bytes.data(), body)));
  return bytes;
}

// Byte offsets of every length field in the records of a checkpoint: meta
// key and value lengths, matrix rows and cols, FFN layer counts and
// raw-record word counts.
std::vector<size_t> RecordLengthFields(const std::string& bytes) {
  std::vector<size_t> fields;
  size_t pos = sizeof(kCheckpointMagic);
  auto tag = [&] {
    uint32_t t = 0;
    std::memcpy(&t, bytes.data() + pos, sizeof(t));
    pos += sizeof(t);
    return static_cast<RecordTag>(t);
  };
  auto length = [&] {
    fields.push_back(pos);
    pos += sizeof(uint64_t);
    return GetU64(bytes, pos - sizeof(uint64_t));
  };
  auto matrix = [&] {  // the record after its tag
    const uint64_t rows = length();
    pos += rows * length() * sizeof(double);
  };
  for (RecordTag t = tag(); t != RecordTag::kEnd; t = tag()) {
    if (t == RecordTag::kMeta) {
      pos += length();
      pos += length();
    } else if (t == RecordTag::kMatrix) {
      matrix();
    } else if (t == RecordTag::kFfn) {
      for (uint64_t m = 2 * length(); m > 0; --m) {
        EXPECT_EQ(tag(), RecordTag::kMatrix);
        matrix();
      }
    } else {
      EXPECT_EQ(t, RecordTag::kRaw64);
      pos += length() * sizeof(uint64_t);
    }
  }
  EXPECT_EQ(pos + kTrailerBytes, bytes.size());
  return fields;
}

// Runs RunStateLayout like the writer in run_state.cc, one word per value,
// and remembers which body word each value and count went to, with the
// address of the field or vector it came from.
struct WordRecorder {
  template <class T>
  void Field(const T& x) {
    word_of.emplace_back(&x, words++);
  }
  template <class V>
  uint64_t Size(const V& v) {
    counts.push_back(words);
    word_of.emplace_back(&v, words++);
    return v.size();
  }
  void Row(const Matrix& m) {
    counts.push_back(words);
    words += 1 + m.cols();
  }
  void Check(bool, const char*) {}

  std::vector<std::pair<const void*, size_t>> word_of;
  std::vector<size_t> counts;  // word index of every count
  size_t words = 0;
};

// A saved run state split into its body words and the bytes around them.
struct RunStateFile {
  explicit RunStateFile(const std::string& path) : bytes(FileBytes(path)) {
    auto loaded = LoadRunState(path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    state = std::move(loaded).value_or(RunState());
    RunStateLayout(layout, static_cast<const RunState&>(state));
    // The body is the raw record just before the end tag and the trailer.
    body_offset = bytes.size() - kTrailerBytes - sizeof(uint32_t) -
                  layout.words * sizeof(uint64_t);
    EXPECT_EQ(GetU64(bytes, body_offset - sizeof(uint64_t)), layout.words);
  }

  // Byte offset of body word `word`.
  size_t Offset(size_t word) const {
    return body_offset + word * sizeof(uint64_t);
  }
  size_t WordOf(const void* field) const {
    for (const auto& [address, word] : layout.word_of) {
      if (address == field) return word;
    }
    ADD_FAILURE() << "field not in the layout";
    return 0;
  }

  // The file with body words [first, first + erase) replaced by `insert`,
  // the body's word count adjusted and the old trailer kept.
  std::string Spliced(size_t first, size_t erase,
                      const std::vector<uint64_t>& insert) const {
    std::string out = bytes;
    out.replace(Offset(first), erase * sizeof(uint64_t),
                std::string(reinterpret_cast<const char*>(insert.data()),
                            insert.size() * sizeof(uint64_t)));
    PutU64(&out, body_offset - sizeof(uint64_t),
           layout.words - erase + insert.size());
    return out;
  }

  std::string bytes;
  RunState state;
  WordRecorder layout;
  size_t body_offset = 0;
};

enum class Kind { kRunState, kServer };

// Smoke shape of the CLI kill-and-resume check.
ExperimentConfig SmokeConfig(const std::string& checkpoint) {
  ExperimentConfig cfg;
  cfg.dataset = "ml";
  cfg.data_scale = 0.02;
  cfg.global_epochs = 2;
  cfg.clients_per_round = 32;
  cfg.eval_user_sample = 100;
  cfg.checkpoint_path = checkpoint;
  cfg.checkpoint_every = 1;
  return cfg;
}

// Delta sync, faults and admission: every block of the run state is
// non-empty.
ExperimentConfig FullStateConfig(const std::string& checkpoint) {
  ExperimentConfig cfg = SmokeConfig(checkpoint);
  cfg.full_downloads = false;
  cfg.sync_replica_cap = 64;
  cfg.fault_upload_loss = 0.05;
  cfg.fault_corrupt = 0.05;
  cfg.admission_control = true;
  cfg.admit_max_row_norm = 1.0;
  cfg.eval_every = 1;
  return cfg;
}

class CheckpointMutationTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The smoke shape killed after round 3, as the CLI check does.
    ExperimentConfig killed = SmokeConfig(Path("smoke"));
    killed.debug_stop_after_rounds = 3;
    Run(killed);
    // A whole run with every block filled: its last run state and its
    // final server checkpoint.
    Run(FullStateConfig(Path("full")));
  }

  static std::string Path(const std::string& name) {
    return testing::TempDir() + "/mutation_" + name;
  }

  static void Run(const ExperimentConfig& cfg) {
    std::remove(cfg.checkpoint_path.c_str());
    std::remove((cfg.checkpoint_path + ".run").c_str());
    auto runner = ExperimentRunner::Create(cfg);
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    (*runner)->Run(Method::kHeteFedRec);
  }

  // Loads `bytes` as `kind` from disk.
  static Status Load(Kind kind, const std::string& bytes) {
    const std::string path = Path("edited.run");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return kind == Kind::kRunState ? LoadRunState(path).status()
                                   : LoadServerCheckpoint(path).status();
  }

  // Resumes `cfg` from a run state holding `bytes`: the status of the
  // load, or of ExperimentRunner::Create when the load succeeds.
  static Status Resume(ExperimentConfig cfg, const std::string& bytes) {
    cfg.checkpoint_path = Path("edited");
    cfg.resume_run = true;
    HFR_RETURN_NOT_OK(Load(Kind::kRunState, bytes));
    return ExperimentRunner::Create(cfg).status();
  }

  // Every length field of the file at `path`, as byte offsets.
  static std::vector<size_t> LengthFields(Kind kind, const std::string& path) {
    const std::string bytes = FileBytes(path);
    std::vector<size_t> fields = RecordLengthFields(bytes);
    if (kind == Kind::kRunState) {
      const RunStateFile file(path);
      for (size_t word : file.layout.counts) {
        fields.push_back(file.Offset(word));
      }
    }
    return fields;
  }

  struct Subject {
    Kind kind;
    std::string path;
  };
  static std::vector<Subject> Subjects() {
    return {{Kind::kRunState, Path("smoke.run")},
            {Kind::kRunState, Path("full.run")},
            {Kind::kServer, Path("full")}};
  }
};

TEST_F(CheckpointMutationTest, SavedFilesLoad) {
  for (const Subject& s : Subjects()) {
    SCOPED_TRACE(s.path);
    EXPECT_TRUE(Load(s.kind, FileBytes(s.path)).ok());
  }
  const RunStateFile full(Path("full.run"));
  EXPECT_FALSE(full.state.gate_state.empty());
  EXPECT_FALSE(full.state.admission_history.empty());
  EXPECT_FALSE(full.state.replicas.empty());
  EXPECT_FALSE(full.state.history.empty());
}

TEST_F(CheckpointMutationTest, RawEditsFailTheChecksum) {
  Rng rng(0x6d757461);  // "muta"
  for (const Subject& s : Subjects()) {
    SCOPED_TRACE(s.path);
    const std::string bytes = FileBytes(s.path);
    for (int flip = 0; flip < 300; ++flip) {
      std::string edited = bytes;
      const uint64_t bit = rng.UniformInt(edited.size() * 8);
      edited[bit / 8] = static_cast<char>(edited[bit / 8] ^ (1 << (bit % 8)));
      EXPECT_FALSE(Load(s.kind, edited).ok()) << "bit " << bit;
    }
    for (size_t at : LengthFields(s.kind, s.path)) {
      for (uint64_t v : kLengthValues) {
        if (GetU64(bytes, at) == v) continue;
        std::string edited = bytes;
        PutU64(&edited, at, v);
        EXPECT_FALSE(Load(s.kind, edited).ok()) << "offset " << at;
      }
    }
    // NaN bit patterns over seeded 8-byte words between the magic and
    // the trailer.
    const size_t payload =
        bytes.size() - sizeof(kCheckpointMagic) - kTrailerBytes;
    for (int k = 0; k < 100; ++k) {
      std::string edited = bytes;
      const size_t at = sizeof(kCheckpointMagic) +
                        rng.UniformInt(payload - sizeof(uint64_t) + 1);
      PutU64(&edited, at, 0x7ff8000000000000ULL | rng.UniformInt(1u << 20));
      if (edited == bytes) continue;
      EXPECT_FALSE(Load(s.kind, edited).ok()) << "offset " << at;
    }
  }
}

TEST_F(CheckpointMutationTest, LengthEditsUnderARecomputedTrailerFail) {
  const ExperimentConfig configs[] = {SmokeConfig(""), FullStateConfig(""),
                                      ExperimentConfig()};
  const std::vector<Subject> subjects = Subjects();
  for (size_t i = 0; i < subjects.size(); ++i) {
    const Subject& s = subjects[i];
    SCOPED_TRACE(s.path);
    const std::string bytes = FileBytes(s.path);
    for (size_t at : LengthFields(s.kind, s.path)) {
      for (uint64_t v : kLengthValues) {
        if (GetU64(bytes, at) == v) continue;
        std::string edited = bytes;
        PutU64(&edited, at, v);
        edited = Resealed(std::move(edited));
        const Status st = s.kind == Kind::kRunState
                              ? Resume(configs[i], edited)
                              : Load(s.kind, edited);
        EXPECT_FALSE(st.ok()) << "offset " << at << " = " << v;
      }
    }
  }
}

// The probe edits that crashed (segfault, HFR_CHECK abort) or silently
// changed a resumed run before the layout checked indices and block sizes.
// Raw, each fails the checksum; resealed, each but the well-formed short
// queue fails the resume with a Status.
TEST_F(CheckpointMutationTest, ProbeEditsFailTheResume) {
  const RunStateFile file(Path("smoke.run"));
  const RunState& st = file.state;
  ASSERT_GE(st.queue_pending.size(), 2u);
  ASSERT_TRUE(st.gate_state.empty());
  const size_t clients = st.client_rngs.size();
  const size_t queue_head = file.WordOf(&st.queue_pending[0]);
  const size_t comm_count = file.WordOf(&st.comm_counters);
  const size_t gate_count = file.WordOf(&st.gate_state);

  auto set_word = [&](size_t word, uint64_t v) {
    return file.Spliced(word, 1, {v});
  };
  auto gate_block = [&](size_t words) {
    std::vector<uint64_t> block(1 + words, 0);
    block[0] = words;
    return file.Spliced(gate_count, 1, block);
  };
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"queue id 10^9", set_word(queue_head, 1000000000)},
      {"comm block one word short",
       file.Spliced(comm_count, 2, {st.comm_counters.size() - 1})},
      {"gate block on a run with no gate", gate_block(3 * clients)},
      {"gate block of the wrong size", gate_block(3)},
      {"next_epoch 2^40",
       set_word(file.WordOf(&st.next_epoch), 1ull << 40)},
  };
  const ExperimentConfig cfg = SmokeConfig("");
  for (const auto& [what, edited] : refused) {
    SCOPED_TRACE(what);
    EXPECT_FALSE(Load(Kind::kRunState, edited).ok());
    const Status resumed = Resume(cfg, Resealed(edited));
    EXPECT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.code(), StatusCode::kInvalidArgument)
        << resumed.ToString();
  }

  // One entry short, the queue is still a well-formed state: only the
  // checksum can tell.
  const size_t queue_count = file.WordOf(&st.queue_pending);
  const std::string short_queue =
      file.Spliced(queue_count, 2, {st.queue_pending.size() - 1});
  EXPECT_FALSE(Load(Kind::kRunState, short_queue).ok());
  EXPECT_TRUE(Resume(cfg, Resealed(short_queue)).ok());
}

}  // namespace
}  // namespace hetefedrec
