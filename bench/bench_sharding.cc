// Sharded-server scale-out: rounds/wall-second and bytes/round per shard
// count under the streaming million-user workload (docs/SYNC.md
// "Sharding").
//
// For each S in {1, 2, 4, 8} the bench streams `--users` power-law clients
// (default 1M — nothing is materialized per user) through rounds of
// bench/stream_round.h against a `ShardedServer` with S item-range shards,
// reporting round
// throughput, upload bytes/round, the per-shard upload balance under the
// Zipf-head item skew, and process peak RSS. Every S run replays the same
// seeds, and a 64-bit FNV-1a digest of its final tables is checked against
// the S=1 run's — the shard count changes per-shard accounting, never
// arithmetic (pinned by tests/core/sharding_equivalence_test). Only the
// digest is kept between runs, so no S row carries a copy of the tables.
//
// Acceptance (ISSUE 9): the 1M-client run completes for every S with peak
// RSS under --max_rss_mb, and all S > 1 tables match S=1 bit-for-bit.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common.h"
#include "bench/stream_round.h"
#include "src/data/stream.h"
#include "src/fed/shard/sharded_server.h"
#include "src/util/cli.h"
#include "src/util/rss.h"
#include "src/util/table_printer.h"
#include "src/util/timer.h"

namespace hetefedrec::bench {
namespace {

// 64-bit FNV-1a over the bit patterns of every table's entries.
uint64_t TablesDigest(const ShardedServer& server) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t s = 0; s < server.num_slots(); ++s) {
    for (double v : server.table(s).data()) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int b = 0; b < 8; ++b) {
        hash ^= (bits >> (8 * b)) & 0xffu;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

int Main(int argc, char** argv) {
  CommandLine cli;
  cli.AddFlag("users", "1000000", "streamed clients");
  cli.AddFlag("items", "200000", "item catalogue size");
  cli.AddFlag("width", "32", "embedding width of the single slot");
  cli.AddFlag("clients_per_round", "256", "uploads merged per round");
  cli.AddFlag("rounds", "0",
              "rounds per shard count (0 = one full pass over --users)");
  cli.AddFlag("lr", "0.05", "client SGD step scale");
  cli.AddFlag("seed", "7", "stream + loop seed");
  cli.AddFlag("pop_exponent", "1.05", "Zipf item-popularity exponent");
  cli.AddFlag("size_exponent", "1.6", "Pareto client-size tail index");
  cli.AddFlag("max_rss_mb", "4096", "peak-RSS acceptance bound (MiB)");
  cli.AddFlag("out_dir", ".", "CSV output directory");
  Status st = cli.Parse(argc, argv);
  if (!st.ok()) return FailWith(st);

  StreamConfig scfg;
  scfg.num_users = cli.GetUint64("users");
  scfg.num_items = cli.GetUint64("items");
  scfg.popularity_exponent = cli.GetDouble("pop_exponent");
  scfg.size_exponent = cli.GetDouble("size_exponent");
  scfg.seed = cli.GetUint64("seed");
  const ClientStream stream(scfg);

  ShardedServer::Options sopts;
  sopts.widths = {static_cast<size_t>(cli.GetUint64("width"))};
  sopts.num_items = scfg.num_items;
  sopts.aggregation = AggregationMode::kMean;
  sopts.seed = cli.GetUint64("seed") + 1;

  const size_t clients_per_round = cli.GetUint64("clients_per_round");
  HFR_CHECK_GT(clients_per_round, 0u);
  const size_t rounds =
      cli.GetUint64("rounds") > 0
          ? cli.GetUint64("rounds")
          : (scfg.num_users + clients_per_round - 1) / clients_per_round;
  const double lr = cli.GetDouble("lr");
  const uint64_t client_seed = cli.GetUint64("seed") + 2;

  TablePrinter table(
      "Sharded server under the streaming power-law workload (width " +
          std::to_string(sopts.widths[0]) + ", " +
          TablePrinter::Count(static_cast<long long>(scfg.num_users)) +
          " clients, " +
          TablePrinter::Count(static_cast<long long>(scfg.num_items)) +
          " items)",
      {"Shards", "Rounds", "Clients", "Rounds/s", "MB/round", "Shard skew",
       "Peak RSS MB", "vs S=1"});

  const size_t max_rss_kb = cli.GetUint64("max_rss_mb") * 1024;
  uint64_t s1_digest = 0;
  bool all_identical = true;
  bool rss_ok = true;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ShardedServer::Options run_sopts = sopts;
    run_sopts.num_shards = shards;
    ShardedServer server(run_sopts);
    std::fprintf(stderr, "[sharding] S=%zu streaming...\n", shards);
    Timer timer;
    size_t cursor = 0;
    for (size_t r = 0; r < rounds; ++r) {
      RunStreamRound(&server, stream, clients_per_round, lr, client_seed,
                     &cursor);
    }
    const double wall_seconds = timer.Seconds();
    const size_t peak_rss_kb = PeakRssKb();

    // Per-shard balance: max over mean of upload scalars — the Zipf head
    // loads the low-id shard hardest.
    uint64_t upload_scalars = 0;
    uint64_t max_scalars = 0;
    for (size_t s = 0; s < shards; ++s) {
      upload_scalars += server.shard_upload_scalars(s);
      max_scalars = std::max(max_scalars, server.shard_upload_scalars(s));
    }
    const double mean_scalars =
        static_cast<double>(upload_scalars) / static_cast<double>(shards);
    const double skew =
        mean_scalars > 0.0 ? static_cast<double>(max_scalars) / mean_scalars
                           : 1.0;

    // Bit-identity vs the S=1 run: same seeds, same workload, different
    // shard count — the final tables must hash alike.
    const uint64_t digest = TablesDigest(server);
    std::string identical = "-";
    if (shards == 1) {
      s1_digest = digest;
    } else {
      const bool same = digest == s1_digest;
      identical = same ? "identical" : "DIFFERS";
      all_identical = all_identical && same;
    }

    if (peak_rss_kb > max_rss_kb) rss_ok = false;
    const double rounds_per_sec =
        wall_seconds > 0.0 ? static_cast<double>(rounds) / wall_seconds : 0.0;
    const double mb_per_round =
        static_cast<double>(upload_scalars) * sizeof(double) /
        (1024.0 * 1024.0) / static_cast<double>(rounds);
    const size_t clients = rounds * clients_per_round;
    table.AddRow({std::to_string(shards),
                  TablePrinter::Count(static_cast<long long>(rounds)),
                  TablePrinter::Count(static_cast<long long>(clients)),
                  TablePrinter::Num(rounds_per_sec, 1),
                  TablePrinter::Num(mb_per_round, 3),
                  TablePrinter::Num(skew, 3),
                  TablePrinter::Num(
                      static_cast<double>(peak_rss_kb) / 1024.0, 1),
                  identical});
  }

  table.Print();
  st = table.WriteCsv(CsvPath(cli, "sharding_scaleout"));
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());

  std::printf(
      "acceptance: %s clients streamed per shard count, bounded RSS "
      "(< %llu MB): %s; S>1 tables bit-identical to S=1: %s\n",
      TablePrinter::Count(static_cast<long long>(scfg.num_users)).c_str(),
      static_cast<unsigned long long>(cli.GetUint64("max_rss_mb")),
      rss_ok ? "PASS" : "FAIL", all_identical ? "PASS" : "FAIL");
  return rss_ok && all_identical ? 0 : 1;
}

}  // namespace
}  // namespace hetefedrec::bench

int main(int argc, char** argv) { return hetefedrec::bench::Main(argc, argv); }
