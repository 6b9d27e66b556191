#include "src/fed/comm.h"

#include "src/util/logging.h"

namespace hetefedrec {

size_t CommRound::Uploads() const {
  size_t total = 0;
  for (const auto& pg : groups) total += pg.uploads;
  return total;
}

size_t CommRound::Downloads() const {
  size_t total = 0;
  for (const auto& pg : groups) total += pg.downloads;
  return total;
}

size_t CommRound::Dropped() const {
  size_t total = 0;
  for (const auto& pg : groups) total += pg.dropped;
  return total;
}

size_t CommRound::UpParams() const {
  size_t total = 0;
  for (const auto& pg : groups) total += pg.up_params;
  return total;
}

size_t CommRound::DownParams() const {
  size_t total = 0;
  for (const auto& pg : groups) total += pg.down_params;
  return total;
}

double CommRound::AvgDownload(Group g) const {
  const auto& pg = groups[static_cast<int>(g)];
  if (pg.downloads == 0) return 0.0;
  return static_cast<double>(pg.down_params) /
         static_cast<double>(pg.downloads);
}

void CommStats::RecordDownload(Group g, size_t params) {
  auto& pg = groups_[static_cast<int>(g)];
  pg.downloads++;
  pg.down_params += params;
}

void CommStats::RecordUpload(Group g, size_t params) {
  auto& pg = groups_[static_cast<int>(g)];
  pg.uploads++;
  pg.up_params += params;
}

void CommStats::RecordDropped(Group g) {
  groups_[static_cast<int>(g)].dropped++;
}

size_t CommStats::Dropped(Group g) const {
  return groups_[static_cast<int>(g)].dropped;
}

size_t CommStats::TotalDropped() const {
  size_t total = 0;
  for (const auto& pg : groups_) total += pg.dropped;
  return total;
}

size_t CommStats::Participations(Group g) const {
  return groups_[static_cast<int>(g)].uploads;
}

size_t CommStats::Downloads(Group g) const {
  return groups_[static_cast<int>(g)].downloads;
}

double CommStats::AvgUpload(Group g) const {
  const auto& pg = groups_[static_cast<int>(g)];
  if (pg.uploads == 0) return 0.0;
  return static_cast<double>(pg.up_params) / static_cast<double>(pg.uploads);
}

double CommStats::AvgDownload(Group g) const {
  const auto& pg = groups_[static_cast<int>(g)];
  if (pg.downloads == 0) return 0.0;
  return static_cast<double>(pg.down_params) /
         static_cast<double>(pg.downloads);
}

size_t CommStats::DownParams(Group g) const {
  return groups_[static_cast<int>(g)].down_params;
}

size_t CommStats::UpParams(Group g) const {
  return groups_[static_cast<int>(g)].up_params;
}

size_t CommStats::TotalTransmitted() const {
  size_t total = 0;
  for (const auto& pg : groups_) total += pg.up_params + pg.down_params;
  return total;
}

size_t CommStats::TotalBytes() const {
  return TotalTransmitted() * wire_scalar_bytes_;
}

std::vector<uint64_t> CommStats::ExportCounters() const {
  std::vector<uint64_t> packed;
  packed.reserve(kCommCounterWords);
  for (const auto& pg : groups_) {
    packed.push_back(pg.uploads);
    packed.push_back(pg.downloads);
    packed.push_back(pg.dropped);
    packed.push_back(pg.up_params);
    packed.push_back(pg.down_params);
  }
  for (const FaultCounter& c : kFaultCounters) {
    packed.push_back(faults_.*c.member);
  }
  return packed;
}

void CommStats::RestoreCounters(const std::vector<uint64_t>& packed) {
  HFR_CHECK_EQ(packed.size(), kCommCounterWords);
  size_t i = 0;
  for (auto& pg : groups_) {
    pg.uploads = packed[i++];
    pg.downloads = packed[i++];
    pg.dropped = packed[i++];
    pg.up_params = packed[i++];
    pg.down_params = packed[i++];
  }
  for (const FaultCounter& c : kFaultCounters) {
    faults_.*c.member = packed[i++];
  }
  round_base_ = groups_;
}

void CommStats::Reset() {
  // The wire format is configuration, not accumulated state.
  groups_ = {};
  faults_ = {};
  round_base_ = {};
}

CommRound CommStats::SnapshotRound() {
  CommRound round;
  for (size_t g = 0; g < groups_.size(); ++g) {
    round.groups[g].uploads = groups_[g].uploads - round_base_[g].uploads;
    round.groups[g].downloads =
        groups_[g].downloads - round_base_[g].downloads;
    round.groups[g].dropped = groups_[g].dropped - round_base_[g].dropped;
    round.groups[g].up_params =
        groups_[g].up_params - round_base_[g].up_params;
    round.groups[g].down_params =
        groups_[g].down_params - round_base_[g].down_params;
  }
  round_base_ = groups_;
  return round;
}

}  // namespace hetefedrec
