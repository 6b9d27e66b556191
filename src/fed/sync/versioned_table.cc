#include "src/fed/sync/versioned_table.h"

namespace hetefedrec {

VersionedTable::VersionedTable(size_t num_slots, size_t num_rows)
    : num_rows_(num_rows) {
  HFR_CHECK_GT(num_slots, 0u);
  HFR_CHECK_GT(num_rows, 0u);
  versions_.assign(num_slots, std::vector<uint64_t>(num_rows, 0));
}

}  // namespace hetefedrec
