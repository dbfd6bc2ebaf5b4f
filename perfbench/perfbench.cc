// End-to-end benchmark of the dmc system: batch mining, index publish and
// live serving, with a per-layer breakdown.
//
//   dmc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--out-dir DIR]
//   dmc_perfbench --self-test
//
// Every run makes its inputs from --seed, sets up (generate, write the
// input file, seed the live server), runs the batch stage (the full
// batch path, repeated in whole rounds) and then the live stage (the
// server started, under closed-loop query load plus an open-loop append
// and probe schedule). Each layer is timed from
// outside, around calls into its public functions, and the stats
// structs those calls return are read back. All outputs are checked
// (checker.h). The last line of stdout is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// holding the end-to-end metrics with --trace 0 and the per-layer
// metrics with --trace 1. README.md in this directory describes the
// workloads and the layer -> end-to-end map.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "checker.h"
#include "core/dmc_imp.h"
#include "core/dmc_sim.h"
#include "core/external_miner.h"
#include "core/parallel_dmc.h"
#include "datagen/weblog_gen.h"
#include "incr/window_miner.h"
#include "matrix/matrix_io.h"
#include "matrix/row_order.h"
#include "observe/trace.h"
#include "rules/rule_index.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/coordinator.h"
#include "trace_table.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dmc::ImplicationRuleSet;
using dmc::SimilarityRuleSet;
using dmc::Status;
using dmc::StatusOr;

const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------
// Workloads.

enum class Family { kWlog, kNews };

struct Workload {
  const char* name;
  /// Data family of the batch input.
  Family family;
  /// Batch input size (MakeWlog / MakeNewsSet scale); 0 means the batch
  /// path runs over the live stage's seed window instead.
  double batch_scale;
  /// Share of --seconds the live stage takes; the batch stage gets the
  /// rest.
  double live_share;
  /// Length of one batch round on the reference host (README). The batch
  /// stage runs floor(its share of --seconds / round_s) rounds, at least
  /// one: a count fixed by --seconds, not by the clock, so a program that
  /// runs faster is sampled over the same rounds.
  double round_s;
};

// Thresholds: minconf = minsim = 7/10 everywhere.
constexpr double kMinConf = 0.70;
const Ratio kThreshold{7, 10};
/// Thread-parallel mine and shard fleet sizes.
constexpr uint32_t kParallelThreads = 4;
constexpr int kShardWorkers = 2;
/// Eight shard tasks, not the default four: at four, the largest task's
/// result on wlog-batch can pass the 64 MiB shard frame cap, and the
/// coordinator then kills workers and mines that task in-process.
constexpr int kShardTasksPerWorker = 4;
/// The live stage, the same on every workload. A window of 10000 rows
/// holds ~10^5 rules; one append of 25 rows (which also evicts 25) costs
/// the ingest thread ~76 ms of AppendBatch (its serve/ingest_batch span)
/// and then ~14 ms of Publish (serve/publish), ~90 ms in all, so 5
/// appends per second keep it under half busy and its backlog bounded.
constexpr uint32_t kWindowRows = 10000;
constexpr uint32_t kBatchRows = 25;
constexpr double kAppendsPerSecond = 5.0;
constexpr double kProbesPerSecond = 400.0;
/// Closed-loop client: requests pipelined per round trip.
constexpr size_t kPipeline = 8;
/// Zipf exponent of query-column popularity: 0.99, the request skew of
/// YCSB's "zipfian" distribution (Cooper et al., "Benchmarking Cloud
/// Serving Systems with YCSB", SoCC 2010), the usual choice for a
/// key-value read load. An assumption: no query log of a rule server
/// is at hand to fit it to.
constexpr double kQueryZipfTheta = 0.99;

const Workload kWorkloads[] = {
    {"wlog-batch", Family::kWlog, 2.0, 0.3, 15.0},
    {"news-scan", Family::kNews, 2.0, 0.3, 2.0},
    {"serve-live", Family::kWlog, 0.0, 0.75, 0.2},
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed * 0x9e3779b97f4a7c15ULL + stream;
  return dmc::SplitMix64(s);
}

/// `m` with its rows in a seeded random order and its columns under a
/// seeded random relabeling: a different input of the same structure,
/// so the work a path does barely depends on the seed. Rows before
/// `split` stay before it (a live window keeps its rows, in a new order).
dmc::BinaryMatrix Shuffled(const dmc::BinaryMatrix& m, uint64_t seed,
                           dmc::RowId split = 0) {
  dmc::Rng rng(seed);
  auto shuffle = [&rng](auto first, auto last) {
    for (auto n = last - first; n > 1; --n) {
      std::swap(first[n - 1], first[rng.Uniform(uint64_t(n))]);
    }
  };
  std::vector<ColumnId> label(m.num_columns());
  for (ColumnId c = 0; c < label.size(); ++c) label[c] = c;
  shuffle(label.begin(), label.end());
  std::vector<dmc::RowId> order(m.num_rows());
  for (dmc::RowId r = 0; r < order.size(); ++r) order[r] = r;
  shuffle(order.begin(), order.begin() + split);
  shuffle(order.begin() + split, order.end());
  std::vector<std::vector<ColumnId>> rows;
  rows.reserve(order.size());
  for (dmc::RowId r : order) {
    std::vector<ColumnId>& row = rows.emplace_back();
    for (ColumnId c : m.Row(r)) row.push_back(label[c]);
  }
  return dmc::BinaryMatrix::FromRows(m.num_columns(), std::move(rows));
}

/// The live stage's row pool: Wlog-style rows at the width of MakeWlog
/// at scale 1, without crawlers: a crawler row entering or leaving the
/// window would swing the rule count, and with it the publish cost, by
/// an order of magnitude.
dmc::BinaryMatrix MakeLiveFeed(uint32_t rows) {
  dmc::WebLogOptions o;
  o.num_clients = rows;
  o.num_urls = 8000;
  o.num_sections = 40;
  o.num_crawlers = 0;
  o.max_pages_per_client = 300;
  return dmc::GenerateWebLog(o);
}

/// Columns with any 1s, most 1s first: the query columns, ranked by
/// popularity for the Zipf draws.
std::vector<ColumnId> ColumnsByPopularity(const dmc::BinaryMatrix& m) {
  const std::vector<uint32_t>& ones = m.column_ones();
  std::vector<ColumnId> cols;
  for (ColumnId c = 0; c < m.num_columns(); ++c) {
    if (ones[c] > 0) cols.push_back(c);
  }
  std::stable_sort(cols.begin(), cols.end(),
                   [&](ColumnId a, ColumnId b) { return ones[a] > ones[b]; });
  return cols;
}

dmc::BinaryMatrix RowSlice(const dmc::BinaryMatrix& m, uint32_t begin,
                           uint32_t end) {
  std::vector<std::vector<ColumnId>> rows;
  rows.reserve(end - begin);
  for (uint32_t r = begin; r < end; ++r) {
    const auto row = m.Row(r);
    rows.emplace_back(row.begin(), row.end());
  }
  return dmc::BinaryMatrix::FromRows(m.num_columns(), std::move(rows));
}

// ---------------------------------------------------------------------
// Measurements.

struct Metric {
  std::vector<double> samples;
  std::string unit;
};

/// Samples per metric name; a metric reports the median of its samples.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    Metric& m = metrics_[name];
    m.samples.push_back(value);
    m.unit = unit;
  }
  double Median(const std::string& name) const {
    auto it = metrics_.find(name);
    if (it == metrics_.end() || it->second.samples.empty()) return 0.0;
    std::vector<double> v = it->second.samples;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  const std::map<std::string, Metric>& all() const { return metrics_; }

  /// Sum of every call timed through Timed().
  double timed_seconds = 0.0;

 private:
  std::map<std::string, Metric> metrics_;
};

/// Operation tally: attempted, and how many failed.
struct Ops {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void Count(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Times `fn` and records its wall seconds under `metric`.
template <typename Fn>
auto Timed(Metrics* metrics, const char* metric, Fn&& fn) {
  const Clock::time_point t = Clock::now();
  auto result = fn();
  const double seconds = Since(t);
  metrics->Add(metric, seconds, "s");
  metrics->timed_seconds += seconds;
  return result;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(std::ceil(p * v.size())) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// The highest sample with at least ten samples above it.
double TailWithTenBeyond(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.front();
}

/// The live stage's CPU plan: the server's two threads share the first
/// two CPUs of the process's mask, the open-loop generator has the third
/// and the closed-loop client the fourth, so the load generators and the
/// server do not migrate onto each other's CPUs. Empty (no pinning) with
/// fewer than four CPUs.
std::vector<int> LiveCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 4; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() < 4) cpus.clear();
  return cpus;
}

/// Restricts the calling thread to `cpus`.
void PinCurrentThread(std::initializer_list<int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// The median, over consecutive blocks of 1000 samples, of each block's
/// 99th percentile (its sample with ten above it). A burst of stalls then
/// moves one block's value, not the run's.
double BlockedP99(const std::vector<double>& samples) {
  constexpr size_t kBlock = 1000;
  if (samples.size() < kBlock) return TailWithTenBeyond(samples);
  std::vector<double> tails;
  for (size_t b = 0; b + kBlock <= samples.size(); b += kBlock) {
    tails.push_back(TailWithTenBeyond(
        {samples.begin() + long(b), samples.begin() + long(b + kBlock)}));
  }
  std::sort(tails.begin(), tails.end());
  return tails[tails.size() / 2];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // kilobytes on Linux
}

// ---------------------------------------------------------------------
// The batch stage: one round of the full batch path.

struct BatchInput {
  dmc::BinaryMatrix matrix;
  std::string path;      // the same matrix as a transaction text file
  std::string work_dir;  // bucket files of the external and shard miners
};

struct Batch {
  const BatchInput* in = nullptr;
  bool per_layer = false;  // --trace 1: also time the snapshot calls
  Metrics* metrics = nullptr;
  Ops* ops = nullptr;
  CheckReport* report = nullptr;
  uint64_t seed = 0;
  int rounds = 0;
};

void CountStatus(Ops* ops, CheckReport* report, const char* what,
                 const Status& st) {
  ops->Count(st.ok());
  if (!st.ok()) report->Fail(std::string(what) + ": " + st.ToString());
}

void RecordMiningStats(Metrics* m, const char* prefix, double wall,
                       const dmc::MiningStats& s) {
  auto name = [&](const char* field) {
    return std::string(prefix) + "." + field;
  };
  m->Add(name("prescan_s"), s.prescan_seconds, "s");
  m->Add(name("hundred_s"), s.hundred_seconds(), "s");
  m->Add(name("sub_base_s"), s.sub_base_seconds, "s");
  m->Add(name("sub_bitmap_s"), s.sub_bitmap_seconds, "s");
  m->Add(name("finish_s"),
         wall - s.prescan_seconds - s.hundred_seconds() - s.sub_seconds(),
         "s");
}

/// One round. Returns the seconds its timed calls took, checks left
/// out. `sink` is null on untraced rounds.
double RunBatchRound(Batch* b, dmc::TraceSink* sink) {
  Metrics* m = b->metrics;
  const double timed_before = m->timed_seconds;
  const bool first = b->rounds == 0;
  const BatchInput& in = *b->in;

  dmc::ImplicationMiningOptions io;
  io.min_confidence = kMinConf;
  io.policy.observe.trace = sink;
  dmc::SimilarityMiningOptions so;
  so.min_similarity = kMinConf;
  so.policy.observe.trace = sink;

  // matrix: parse the input file and order its rows.
  {
    StatusOr<dmc::BinaryMatrix> read = [&] {
      dmc::ScopedSpan span(sink, "matrix:read");
      return Timed(m, "matrix.read_s",
                   [&] { return dmc::ReadMatrixTextFile(in.path); });
    }();
    CountStatus(b->ops, b->report, "ReadMatrixTextFile", read.status());
    if (read.ok() && (read->num_rows() != in.matrix.num_rows() ||
                      read->num_ones() != in.matrix.num_ones())) {
      b->report->Fail("ReadMatrixTextFile: the file does not hold the input");
    }
    if (read.ok()) {
      dmc::ScopedSpan span(sink, "matrix:order");
      const dmc::BucketedOrder order = Timed(m, "matrix.order_s", [&] {
        return dmc::DensityBucketOrder(*read);
      });
      b->ops->Count(order.order.size() == read->num_rows());
    }
  }

  // core: serial DMC-imp and DMC-sim over the in-memory matrix.
  dmc::MiningStats imp_stats;
  StatusOr<ImplicationRuleSet> serial = [&] {
    dmc::ScopedSpan span(sink, "core:mine_imp");
    return Timed(m, "mine_imp_s", [&] {
      return dmc::MineImplications(in.matrix, io, &imp_stats);
    });
  }();
  CountStatus(b->ops, b->report, "MineImplications", serial.status());
  if (!serial.ok()) return m->timed_seconds - timed_before;
  const std::vector<ImplicationRule>& rules = serial->rules();
  RecordMiningStats(m, "core.imp", m->all().at("mine_imp_s").samples.back(),
                    imp_stats);
  m->Add("core.imp.peak_counter_bytes", double(imp_stats.peak_counter_bytes),
         "B");
  m->Add("core.imp.peak_candidates", double(imp_stats.peak_candidates),
         "count");
  m->Add("core.imp.rules", double(rules.size()), "count");
  m->Add("core.imp.columns_cut_off", double(imp_stats.columns_cut_off),
         "count");
  m->Add("core.imp.sub_bitmap_rows", double(imp_stats.sub_bitmap_rows),
         "count");

  {
    dmc::MiningStats sim_stats;
    StatusOr<SimilarityRuleSet> sim = [&] {
      dmc::ScopedSpan span(sink, "core:mine_sim");
      return Timed(m, "mine_sim_s", [&] {
        return dmc::MineSimilarities(in.matrix, so, &sim_stats);
      });
    }();
    CountStatus(b->ops, b->report, "MineSimilarities", sim.status());
    if (sim.ok()) {
      RecordMiningStats(m, "core.sim",
                        m->all().at("mine_sim_s").samples.back(), sim_stats);
      m->Add("core.sim.pairs", double(sim->size()), "count");
      if (first) {
        const std::vector<ColumnId> sample =
            SampleColumns(in.matrix, rules, sim->pairs(), kThreshold, b->seed,
                          8, 8, 48);
        CheckImplicationRecount(in.matrix, kThreshold, rules, sample,
                                b->report);
        CheckSimilarityRecount(in.matrix, kThreshold, sim->pairs(), sample,
                               b->report);
      }
    }
  }

  // core: thread-parallel DMC-imp.
  {
    dmc::ParallelOptions po;
    po.num_threads = kParallelThreads;
    dmc::ParallelMiningStats ps;
    StatusOr<ImplicationRuleSet> par = [&] {
      dmc::ScopedSpan span(sink, "core:mine_imp_par");
      return Timed(m, "core.par.wall_s", [&] {
        return dmc::MineImplicationsParallel(in.matrix, io, po, &ps);
      });
    }();
    CountStatus(b->ops, b->report, "MineImplicationsParallel", par.status());
    if (par.ok()) {
      CheckIdentical("parallel vs serial", rules, par->rules(), b->report);
      const double wall = m->all().at("core.par.wall_s").samples.back();
      m->Add("core.par.max_shard_s", ps.max_shard_seconds, "s");
      m->Add("core.par.sum_shard_s", ps.sum_shard_seconds, "s");
      m->Add("core.par.outside_shards_s", wall - ps.max_shard_seconds, "s");
    }
  }

  // core: external two-pass DMC-imp, file to rules.
  {
    dmc::ExternalMiningStats es;
    StatusOr<ImplicationRuleSet> ext = [&] {
      dmc::ScopedSpan span(sink, "core:mine_imp_external");
      return Timed(m, "mine_imp_external_s", [&] {
        return dmc::MineImplicationsFromFile(in.path, io, in.work_dir, &es);
      });
    }();
    CountStatus(b->ops, b->report, "MineImplicationsFromFile", ext.status());
    if (ext.ok()) {
      CheckIdentical("external vs serial", rules, ext->rules(), b->report);
      m->Add("core.ext.pass1_s", es.pass1_seconds, "s");
      m->Add("core.ext.partition_s", es.partition_seconds, "s");
      m->Add("core.ext.mine_s", es.mine_seconds, "s");
    }
  }

  // shard: the multi-process coordinator with two workers.
  {
    dmc::shard::ShardOptions sh;
    sh.num_workers = kShardWorkers;
    sh.tasks_per_worker = kShardTasksPerWorker;
    dmc::shard::ShardMiningStats ss;
    StatusOr<ImplicationRuleSet> sharded = [&] {
      dmc::ScopedSpan span(sink, "shard:mine_imp");
      return Timed(m, "mine_imp_shard_s", [&] {
        return dmc::shard::MineImplicationsSharded(in.path, io, in.work_dir,
                                                   sh, &ss);
      });
    }();
    CountStatus(b->ops, b->report, "shard::MineImplicationsSharded",
                sharded.status());
    if (sharded.ok()) {
      CheckIdentical("sharded vs serial", rules, sharded->rules(), b->report);
      m->Add("shard.pass1_s", ss.pass1_seconds, "s");
      m->Add("shard.mine_s", ss.mine_seconds, "s");
      m->Add("shard.tasks", double(ss.tasks_total), "count");
      if (ss.workers_died > 0 || ss.degraded_tasks > 0) {
        b->report->Fail("shard: " + std::to_string(ss.workers_died) +
                        " workers died, " +
                        std::to_string(ss.degraded_tasks) +
                        " tasks mined in-process");
      }
    }
  }

  // rules: publish, save, cold load.
  const std::string index_path = in.work_dir + "/rules.idx";
  dmc::RuleIndex published;
  {
    dmc::ScopedSpan span(sink, "rules:publish");
    const size_t size = Timed(m, "index_publish_s", [&] {
      published.Publish(*serial);
      return published.snapshot()->size();
    });
    b->ops->Count(size == rules.size());
  }
  {
    dmc::ScopedSpan span(sink, "rules:save");
    CountStatus(b->ops, b->report, "RuleIndex::Save",
                Timed(m, "rules.index_save_s",
                      [&] { return published.Save(index_path); }));
  }
  dmc::RuleIndex loaded;
  {
    dmc::ScopedSpan span(sink, "rules:load");
    CountStatus(b->ops, b->report, "RuleIndex::Load",
                Timed(m, "index_load_s",
                      [&] { return loaded.Load(index_path); }));
  }
  const auto snap = published.snapshot();
  const auto reloaded = loaded.snapshot();
  CheckIdentical("reloaded vs published index", snap->TopK(0),
                 reloaded->TopK(0), b->report);
  if (first) {
    CheckIdentical("published index vs serial", rules, SnapshotRules(*snap),
                   b->report);
    const std::vector<ColumnId> sample =
        SampleColumns(in.matrix, rules, {}, kThreshold, b->seed ^ 1, 8, 8, 48);
    CheckIndex(*reloaded, rules, kThreshold, sample, b->report);
  }

  if (b->per_layer) {
    // The snapshot's own calls, timed directly.
    std::shared_ptr<const dmc::RuleIndexSnapshot> built;
    {
      dmc::ScopedSpan span(sink, "rules:index_build");
      built = Timed(m, "rules.index_build_s", [&] {
        return dmc::RuleIndexSnapshot::Build(*serial, 1);
      });
      b->ops->Count(built->size() == rules.size());
    }
    std::string image;
    {
      dmc::ScopedSpan span(sink, "rules:index_serialize");
      image = Timed(m, "rules.index_serialize_s",
                    [&] { return built->Serialize(); });
      b->ops->Count(!image.empty());
    }
    m->Add("rules.index_image_bytes", double(image.size()), "B");
    {
      dmc::ScopedSpan span(sink, "rules:index_deserialize");
      auto back = Timed(m, "rules.index_deserialize_s", [&] {
        return dmc::RuleIndexSnapshot::Deserialize(image, "image");
      });
      CountStatus(b->ops, b->report, "RuleIndexSnapshot::Deserialize",
                  back.status());
    }
    // Direct snapshot queries over Zipf-popular columns.
    const std::vector<ColumnId> by_pop = ColumnsByPopularity(in.matrix);
    dmc::ZipfSampler zipf(by_pop.size(), kQueryZipfTheta);
    dmc::Rng rng(SubSeed(b->seed, 77));
    constexpr int kQueries = 2000;
    size_t sink_size = 0;
    dmc::ScopedSpan span(sink, "rules:direct_queries");
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kQueries; ++i) {
      sink_size += snap->QueryByAntecedent(by_pop[zipf.Sample(rng)]).size();
    }
    const Clock::time_point t1 = Clock::now();
    for (int i = 0; i < kQueries; ++i) {
      sink_size += snap->QueryByConsequent(by_pop[zipf.Sample(rng)]).size();
    }
    const Clock::time_point t2 = Clock::now();
    for (int i = 0; i < kQueries / 10; ++i) sink_size += snap->TopK(16).size();
    const double per = 1e6 / kQueries;
    m->Add("rules.query_lhs_us",
           std::chrono::duration<double>(t1 - t0).count() * per, "us");
    m->Add("rules.query_rhs_us",
           std::chrono::duration<double>(t2 - t1).count() * per, "us");
    m->Add("rules.topk_us", Since(t2) * per * 10, "us");
    b->ops->Count(sink_size > 0 || rules.empty());
  }
  ++b->rounds;
  return m->timed_seconds - timed_before;
}

// ---------------------------------------------------------------------
// The live stage.

struct LiveSetup {
  dmc::BinaryMatrix feed;  // window seed rows, then every appended row
  uint32_t n_appends = 0;
  std::vector<ColumnId> by_popularity;  // query columns, most popular first
};

/// One reply-time observation of a generation.
struct GenSeen {
  uint64_t generation;
  Clock::time_point at;
};

/// One request of the query mix: an op and its argument (the column,
/// or k for top-k; none for stats).
struct Query {
  dmc::serve::Op op;
  uint32_t arg;
};

struct QueryPicker {
  const std::vector<ColumnId>* columns;
  dmc::ZipfSampler zipf;
  dmc::Rng rng;
  QueryPicker(const std::vector<ColumnId>* cols, uint64_t seed)
      : columns(cols), zipf(cols->size(), kQueryZipfTheta), rng(seed) {}
  /// The mix of bench/bench_serve.cc: 7/16 antecedent, 7/16 consequent,
  /// 1/16 top-16, 1/16 stats.
  Query Next() {
    using dmc::serve::Op;
    const uint64_t k = rng.Uniform(16);
    const ColumnId col = (*columns)[zipf.Sample(rng)];
    if (k < 7) return {Op::kQueryByAntecedent, col};
    if (k < 14) return {Op::kQueryByConsequent, col};
    if (k == 14) return {Op::kTopK, 16};
    return {Op::kStats, 0};
  }
  static std::string Encode(Query q) {
    return q.op == dmc::serve::Op::kStats
               ? dmc::serve::EncodeStatsRequest()
               : dmc::serve::EncodeQueryRequest(q.op, q.arg);
  }
};

/// A reply: counts the op, checks the reply, records its generation.
void TakeReply(const StatusOr<dmc::serve::Reply>& reply, Query q, Ops* ops,
               CheckReport* report, uint64_t* last_gen,
               std::vector<GenSeen>* seen) {
  using dmc::serve::Op;
  const bool ok = reply.ok() && reply->status.ok();
  ops->Count(ok);
  if (!ok) return;
  if (reply->op != q.op) {
    report->Fail("live: a reply answers another op than its request");
  } else if (q.op != Op::kStats) {
    const QueryKind kind =
        q.op == Op::kQueryByAntecedent   ? QueryKind::kAntecedent
        : q.op == Op::kQueryByConsequent ? QueryKind::kConsequent
                                         : QueryKind::kTopK;
    CheckReply(kind, q.arg, kThreshold, reply->rules, report);
  }
  CheckGeneration(*last_gen, reply->generation, report);
  if (reply->generation > *last_gen) {
    seen->push_back({reply->generation, Clock::now()});
    *last_gen = reply->generation;
  }
}

struct ClientResult {
  uint64_t replies = 0;
  std::vector<GenSeen> seen;
  CheckReport report;
};

/// The closed-loop client: pipelined query windows until `stop`.
void RunClient(uint16_t port, const std::vector<ColumnId>* columns,
               uint64_t seed, int cpu, const std::atomic<bool>* stop,
               Ops* ops, ClientResult* out) {
  if (cpu >= 0) PinCurrentThread({cpu});
  dmc::serve::RuleClient client;
  const Status st = client.Connect("127.0.0.1", port);
  ops->Count(st.ok());
  if (!st.ok()) {
    out->report.Fail("client connect: " + st.ToString());
    return;
  }
  QueryPicker picker(columns, seed);
  uint64_t last_gen = 0;
  std::vector<Query> window(kPipeline);
  std::string wire;
  while (!stop->load(std::memory_order_relaxed)) {
    wire.clear();
    for (auto& q : window) {
      q = picker.Next();
      wire += QueryPicker::Encode(q);
    }
    if (!client.SendRequest(wire).ok()) {
      ops->Count(false);
      out->report.Fail("client: send failed");
      return;
    }
    for (const auto& q : window) {
      const StatusOr<dmc::serve::Reply> reply = client.ReadReply();
      TakeReply(reply, q, ops, &out->report, &last_gen, &out->seen);
      if (!reply.ok()) return;
      ++out->replies;
    }
  }
}

void RunLiveStage(const LiveSetup& live, dmc::RuleServer* server,
                  int client_cpu, double seconds, uint64_t seed,
                  Metrics* m, Ops* ops, CheckReport* report,
                  dmc::TraceSink* sink) {
  const uint64_t gen0 = server->StatsSnapshot().generation;
  const dmc::serve::ServeStats before = server->StatsSnapshot();
  std::atomic<bool> stop{false};
  ClientResult client_result;
  std::thread client(RunClient, server->port(), &live.by_popularity,
                     SubSeed(seed, 11), client_cpu, &stop, ops,
                     &client_result);

  dmc::serve::RuleClient gen;
  {
    const Status st = gen.Connect("127.0.0.1", server->port());
    ops->Count(st.ok());
    if (!st.ok()) report->Fail("generator connect: " + st.ToString());
  }
  QueryPicker picker(&live.by_popularity, SubSeed(seed, 12));
  const uint32_t n_probes =
      static_cast<uint32_t>(seconds * kProbesPerSecond);
  struct Event {
    double due;  // seconds after the schedule starts
    int append;  // batch index, or -1 for a probe
  };
  std::vector<Event> events;
  for (uint32_t i = 0; i < n_probes; ++i) {
    events.push_back({i / kProbesPerSecond, -1});
  }
  for (uint32_t j = 0; j < live.n_appends; ++j) {
    events.push_back({(j + 0.5) / kAppendsPerSecond, int(j)});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.due < b.due; });

  // The generator's sleeps would otherwise wake up to the default 50 us
  // timer slack late, and the probes, timed from when they were due,
  // would count it.
  prctl(PR_SET_TIMERSLACK, 1UL);
  std::vector<double> probe_ms, late_ms;
  std::vector<Clock::time_point> acked(live.n_appends);
  std::vector<GenSeen> seen;
  uint64_t last_gen = 0;
  uint64_t pending_max = 0;
  const ColumnId width = live.feed.num_columns();
  const Clock::time_point start = Clock::now();
  for (const Event& e : events) {
    if (!gen.connected()) break;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(e.due));
    std::this_thread::sleep_until(due);
    late_ms.push_back(Since(due) * 1e3);
    if (e.append < 0) {
      const auto q = picker.Next();
      dmc::ScopedSpan span(sink, "serve:probe", 100);
      const Status sent = gen.SendRequest(QueryPicker::Encode(q));
      const StatusOr<dmc::serve::Reply> reply =
          sent.ok() ? gen.ReadReply() : StatusOr<dmc::serve::Reply>(sent);
      probe_ms.push_back(Since(due) * 1e3);
      TakeReply(reply, q, ops, report, &last_gen, &seen);
      continue;
    }
    const uint32_t first = kWindowRows + uint32_t(e.append) * kBatchRows;
    std::vector<std::vector<ColumnId>> rows;
    for (uint32_t r = first; r < first + kBatchRows; ++r) {
      const auto row = live.feed.Row(r);
      rows.emplace_back(row.begin(), row.end());
    }
    dmc::ScopedSpan span(sink, "serve:append", 100);
    const StatusOr<uint64_t> ack = gen.AppendRows(width, rows);
    acked[size_t(e.append)] = Clock::now();
    ops->Count(ack.ok());
    if (!ack.ok()) {
      report->Fail("append: " + ack.status().ToString());
    } else {
      pending_max = std::max(pending_max, *ack);
    }
  }

  // Drain: wait for the generation that holds every append.
  const uint64_t target = gen0 + live.n_appends;
  const Clock::time_point drain_start = Clock::now();
  while (last_gen < target && Since(drain_start) < 60.0 && gen.connected()) {
    const StatusOr<dmc::serve::ServeStats> st = gen.Stats();
    ops->Count(st.ok());
    if (!st.ok()) break;
    CheckGeneration(last_gen, st->generation, report);
    if (st->generation > last_gen) {
      seen.push_back({st->generation, Clock::now()});
      last_gen = st->generation;
    }
    if (last_gen < target) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (last_gen < target) report->Fail("live: the appends never all landed");
  stop.store(true, std::memory_order_relaxed);
  client.join();
  const double live_s = Since(start);
  gen.Close();
  for (std::string& f : client_result.report.failures) {
    report->Fail(std::move(f));
  }

  const dmc::serve::ServeStats after = server->StatsSnapshot();
  // Acked appends or evicts the ingest thread later dropped are failed
  // operations too.
  for (uint64_t i = 0; i < after.batches_dropped + after.evicts_dropped; ++i) {
    ops->Count(false);
  }

  // Visible lag: append ack -> first reply carrying its generation.
  seen.insert(seen.end(), client_result.seen.begin(),
              client_result.seen.end());
  std::vector<Clock::time_point> first_seen(target + 2, Clock::time_point::max());
  for (const GenSeen& s : seen) {
    const size_t g = std::min<uint64_t>(s.generation, target + 1);
    first_seen[g] = std::min(first_seen[g], s.at);
  }
  for (size_t g = first_seen.size() - 1; g-- > 0;) {
    first_seen[g] = std::min(first_seen[g], first_seen[g + 1]);
  }
  std::vector<double> lag_ms;
  for (uint32_t j = 0; j < live.n_appends; ++j) {
    const Clock::time_point vis = first_seen[gen0 + j + 1];
    if (vis == Clock::time_point::max()) continue;
    lag_ms.push_back(
        std::max(0.0, std::chrono::duration<double, std::milli>(vis - acked[j])
                          .count()));
  }

  m->Add("serve_qps", double(client_result.replies + probe_ms.size()) / live_s,
         "1/s");
  m->Add("serve.query_p50_ms", Percentile(probe_ms, 0.50), "ms");
  m->Add("serve.query_p99_ms", BlockedP99(probe_ms), "ms");
  m->Add("visible_lag_p50_ms", Percentile(lag_ms, 0.50), "ms");
  m->Add("visible_lag_tail_ms", TailWithTenBeyond(lag_ms), "ms");
  m->Add("serve.requests_served",
         double(after.requests_served - before.requests_served), "count");
  m->Add("serve.snapshots_published",
         double(after.snapshots_published - before.snapshots_published),
         "count");
  m->Add("serve.pending_batches_max", double(pending_max), "count");
  m->Add("serve.probe_late_ms", Percentile(late_ms, 0.99), "ms");
  std::printf("live: %zu probes, %u appends, %zu lag samples (tail = %zuth "
              "of %zu), %llu closed-loop replies in %.2f s\n",
              probe_ms.size(), live.n_appends, lag_ms.size(),
              lag_ms.size() > 10 ? lag_ms.size() - 10 : size_t{1},
              lag_ms.size(), (unsigned long long)client_result.replies,
              live_s);
}

/// After the live stage: the server's final snapshot must equal a fresh
/// mine of the final window and an offline replay of the same batches
/// through WindowedImplicationMiner, and pass the sampled recount. The
/// replay also yields the incr layer's numbers.
void CheckFinalWindow(const LiveSetup& live,
                      const std::vector<ImplicationRule>& served,
                      uint64_t seed, Metrics* m, Ops* ops,
                      CheckReport* report, dmc::TraceSink* sink) {
  dmc::ImplicationMiningOptions io;
  io.min_confidence = kMinConf;
  io.policy.observe.trace = sink;
  const uint32_t total = kWindowRows + live.n_appends * kBatchRows;
  auto replay = dmc::WindowedImplicationMiner::FromBatchMine(
      RowSlice(live.feed, 0, kWindowRows), io, kWindowRows);
  CountStatus(ops, report, "WindowedImplicationMiner::FromBatchMine",
              replay.status());
  if (!replay.ok()) return;
  std::vector<double> append_ms, evict_ms;
  uint64_t pairs_examined = 0, killed = 0;
  for (uint32_t j = 0; j < live.n_appends; ++j) {
    const uint32_t first = kWindowRows + j * kBatchRows;
    const dmc::BinaryMatrix batch =
        RowSlice(live.feed, first, first + kBatchRows);
    dmc::IncrAppendStats as;
    dmc::IncrEvictStats es;
    dmc::ScopedSpan span(sink, "incr:append_batch");
    CountStatus(ops, report, "WindowedImplicationMiner::AppendBatch",
                replay->AppendBatch(batch, &as, &es));
    append_ms.push_back(as.seconds * 1e3);
    evict_ms.push_back(es.seconds * 1e3);
    pairs_examined += as.delta_pairs_examined;
    killed += as.candidates_killed + es.candidates_killed;
  }
  m->Add("incr.append_ms", Percentile(append_ms, 0.5), "ms");
  m->Add("incr.evict_ms", Percentile(evict_ms, 0.5), "ms");
  m->Add("incr.delta_pairs_examined", double(pairs_examined), "count");
  m->Add("incr.candidates_killed", double(killed), "count");

  const dmc::BinaryMatrix window =
      RowSlice(live.feed, total - kWindowRows, total);
  auto fresh = dmc::MineImplications(window, io);
  CountStatus(ops, report, "MineImplications(final window)", fresh.status());
  if (!fresh.ok()) return;
  CheckIdentical("served final window vs fresh mine", fresh->rules(), served,
                 report);
  CheckIdentical("incr replay vs fresh mine", fresh->rules(),
                 replay->rules().rules(), report);
  CheckImplicationRecount(
      window, kThreshold, served,
      SampleColumns(window, served, {}, kThreshold, seed ^ 2, 8, 8, 48),
      report);
}

// ---------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string work_dir = ".bench_work";
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else if (flag == "--out-dir") {
      a->out_dir = value;
    } else {
      return false;
    }
  }
  return a->self_test || (!a->workload.empty() && a->seconds > 0);
}

// Units of the reported metrics; a metric missing from a run prints 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"mine_imp_s", "s"},
    {"mine_sim_s", "s"},
    {"mine_imp_external_s", "s"},
    {"mine_imp_shard_s", "s"},
    {"index_publish_s", "s"},
    {"index_load_s", "s"},
    {"serve_qps", "1/s"},
    {"visible_lag_p50_ms", "ms"},
    {"visible_lag_tail_ms", "ms"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"core.imp.prescan_s", "s"},
    {"core.imp.hundred_s", "s"},
    {"core.imp.sub_base_s", "s"},
    {"core.imp.sub_bitmap_s", "s"},
    {"core.imp.finish_s", "s"},
    {"core.imp.peak_counter_bytes", "B"},
    {"core.imp.peak_candidates", "count"},
    {"core.imp.rules", "count"},
    {"core.imp.columns_cut_off", "count"},
    {"core.imp.sub_bitmap_rows", "count"},
    {"core.sim.prescan_s", "s"},
    {"core.sim.hundred_s", "s"},
    {"core.sim.sub_base_s", "s"},
    {"core.sim.sub_bitmap_s", "s"},
    {"core.sim.finish_s", "s"},
    {"core.sim.pairs", "count"},
    {"core.par.wall_s", "s"},
    {"core.par.max_shard_s", "s"},
    {"core.par.sum_shard_s", "s"},
    {"core.par.outside_shards_s", "s"},
    {"core.ext.pass1_s", "s"},
    {"core.ext.partition_s", "s"},
    {"core.ext.mine_s", "s"},
    {"matrix.read_s", "s"},
    {"matrix.order_s", "s"},
    {"shard.pass1_s", "s"},
    {"shard.mine_s", "s"},
    {"shard.tasks", "count"},
    {"rules.index_build_s", "s"},
    {"rules.index_serialize_s", "s"},
    {"rules.index_image_bytes", "B"},
    {"rules.index_deserialize_s", "s"},
    {"rules.index_save_s", "s"},
    {"rules.query_lhs_us", "us"},
    {"rules.query_rhs_us", "us"},
    {"rules.topk_us", "us"},
    {"incr.append_ms", "ms"},
    {"incr.evict_ms", "ms"},
    {"incr.delta_pairs_examined", "count"},
    {"incr.candidates_killed", "count"},
    {"serve.requests_served", "count"},
    {"serve.snapshots_published", "count"},
    {"serve.pending_batches_max", "count"},
    {"serve.query_p50_ms", "ms"},
    {"serve.query_p99_ms", "ms"},
    {"serve.probe_late_ms", "ms"},
    {"serve.peak_rss_mb", "MB"},
    {"serve.ingest_ms", "ms"},
    {"serve.publish_ms", "ms"},
    {"self.core_s", "s"},
    {"self.matrix_s", "s"},
    {"self.shard_s", "s"},
    {"self.rules_s", "s"},
    {"self.incr_s", "s"},
    {"self.serve_s", "s"},
    {"trace.overhead_pct", "%"},
};

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::unique_ptr<dmc::TraceSink> sink;
  if (args.trace) sink = std::make_unique<dmc::TraceSink>();
  const std::string work_dir = args.work_dir + "/" + w->name + "-" +
                               std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work_dir.c_str());
    return 1;
  }

  Metrics m;
  Ops ops;
  CheckReport report;

  // ---- set-up: inputs, input file, seeded server.
  const double live_seconds = args.seconds * w->live_share;
  LiveSetup live;
  live.n_appends =
      std::max<uint32_t>(20, uint32_t(live_seconds * kAppendsPerSecond));
  live.feed = Shuffled(MakeLiveFeed(kWindowRows + live.n_appends * kBatchRows),
                       SubSeed(args.seed, 1), kWindowRows);
  const dmc::BinaryMatrix seed_window = RowSlice(live.feed, 0, kWindowRows);
  live.by_popularity = ColumnsByPopularity(seed_window);
  BatchInput batch_in;
  batch_in.work_dir = work_dir;
  batch_in.path = work_dir + "/input.txt";
  if (w->batch_scale > 0) {
    dmc::BinaryMatrix base =
        w->family == Family::kWlog
            ? dmc::bench::MakeWlog(w->batch_scale).matrix
            : dmc::bench::MakeNewsSet(w->batch_scale).matrix;
    batch_in.matrix = Shuffled(base, SubSeed(args.seed, 2));
  } else {
    batch_in.matrix = seed_window;
  }
  const double inputs_s = Since(kProcessStart);
  {
    // WriteMatrixText into a plain stream: WriteMatrixTextFile would also
    // fsync, and that time belongs to the host's disk, not the program.
    std::ofstream out(batch_in.path);
    Status st = dmc::WriteMatrixText(batch_in.matrix, out);
    out.close();
    if (st.ok() && !out) st = dmc::IOError("cannot write " + batch_in.path);
    CountStatus(&ops, &report, "WriteMatrixText", st);
  }
  const double written_s = Since(kProcessStart);

  dmc::ServeOptions so;
  so.mining.min_confidence = kMinConf;
  so.mining.policy.observe.trace = sink.get();
  so.window_rows = kWindowRows;
  so.trace = sink.get();
  dmc::RuleServer server(so);
  CountStatus(&ops, &report, "RuleServer::SeedFromMatrix",
              server.SeedFromMatrix(seed_window));
  if (!report.ok()) {
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "perfbench: %s\n", f.c_str());
    }
    return 1;
  }
  // Set-up ends with the server's Start, which runs right before the live
  // stage so that the batch stage's threads do not share the machine with
  // the server's.
  const double setup_before_start_s = Since(kProcessStart);
  std::printf("workload %s seed %llu: batch input %u x %u (%zu ones), live "
              "window %u rows, seed rules %zu\n",
              w->name, (unsigned long long)args.seed,
              batch_in.matrix.num_rows(), batch_in.matrix.num_columns(),
              batch_in.matrix.num_ones(), kWindowRows,
              server.index().snapshot()->size());
  std::printf("set-up: inputs %.4f s, input file %.4f s, server seed "
              "%.4f s\n",
              inputs_s, written_s - inputs_s,
              setup_before_start_s - written_s);

  // ---- batch stage: a fixed number of whole rounds.
  Batch b;
  b.in = &batch_in;
  b.per_layer = args.trace;
  b.metrics = &m;
  b.ops = &ops;
  b.report = &report;
  b.seed = args.seed;
  const int rounds = std::max(
      1, int(std::floor((args.seconds - live_seconds) / w->round_s)));
  std::vector<double> round_s;
  const Clock::time_point batch_start = Clock::now();
  while (int(round_s.size()) < rounds && report.ok()) {
    round_s.push_back(RunBatchRound(&b, nullptr));
  }
  std::printf("batch: %zu rounds in %.2f s, median round %.3f s of timed "
              "calls\n",
              round_s.size(), Since(batch_start), Percentile(round_s, 0.5));
  // Tracing overhead: the calls that take the trace sink (the five
  // miners), traced against their untraced medians. The index calls
  // trace nothing, and a later round's index calls run slower for
  // reasons of their own, so they are left out of the comparison.
  double traced_mine_s = 0.0, untraced_mine_s = 0.0;
  if (args.trace) {
    // The traced round records into a throwaway Metrics so the per-layer
    // medians stay those of the untraced rounds.
    Metrics traced;
    Batch tb = b;
    tb.metrics = &traced;
    RunBatchRound(&tb, sink.get());
    for (const char* name : {"mine_imp_s", "mine_sim_s", "core.par.wall_s",
                             "mine_imp_external_s", "mine_imp_shard_s"}) {
      traced_mine_s += traced.Median(name);
      untraced_mine_s += m.Median(name);
    }
  }
  // Peak memory of set-up and the batch path. The live stage's growth,
  // which depends on allocator timing, is serve.peak_rss_mb.
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  // Hand the batch stage's freed heap back and let the kernel finish
  // with it before the live stage: after a 2 GB batch stage, probes
  // otherwise ran into millisecond stalls on some runs.
  malloc_trim(0);
  std::this_thread::sleep_for(std::chrono::seconds(1));

  // ---- live stage.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  (void)sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  const std::vector<int> cpus = LiveCpus();
  {
    // The server's threads inherit the mask they are started under.
    if (!cpus.empty()) PinCurrentThread({cpus[0], cpus[1]});
    const Clock::time_point t = Clock::now();
    CountStatus(&ops, &report, "RuleServer::Start", server.Start());
    m.Add("setup_s", setup_before_start_s + Since(t), "s");
  }
  if (report.ok()) {
    if (!cpus.empty()) PinCurrentThread({cpus[2]});
    RunLiveStage(live, &server, cpus.empty() ? -1 : cpus[3], live_seconds,
                 args.seed, &m, &ops, &report, sink.get());
  }
  (void)pthread_setaffinity_np(pthread_self(), sizeof(all_cpus), &all_cpus);
  const std::vector<ImplicationRule> served =
      SnapshotRules(*server.index().snapshot());
  server.Shutdown();
  CheckFinalWindow(live, served, args.seed, &m, &ops, &report, sink.get());
  m.Add("serve.peak_rss_mb", PeakRssMb(), "MB");

  // ---- the per-layer table of the traced round and live stage.
  if (args.trace) {
    m.Add("trace.overhead_pct",
          (traced_mine_s / untraced_mine_s - 1.0) * 100.0, "%");
    std::printf("trace: traced mining calls %.3f s vs untraced %.3f s\n",
                traced_mine_s, untraced_mine_s);
    const std::vector<dmc::TraceEvent> events = sink->Snapshot();
    std::vector<double> ingest_ms, publish_ms;
    for (const dmc::TraceEvent& e : events) {
      if (e.name == "serve/ingest_batch") ingest_ms.push_back(e.dur_micros / 1e3);
      if (e.name == "serve/publish") publish_ms.push_back(e.dur_micros / 1e3);
    }
    m.Add("serve.ingest_ms", Percentile(ingest_ms, 0.5), "ms");
    m.Add("serve.publish_ms", Percentile(publish_ms, 0.5), "ms");
    std::printf("%-10s %12s %8s\n", "layer", "self [s]", "spans");
    for (const LayerTime& lt : SelfTimeByLayer(events)) {
      std::printf("%-10s %12.4f %8zu\n", lt.layer.c_str(), lt.self_seconds,
                  lt.spans);
      m.Add("self." + lt.layer + "_s", lt.self_seconds, "s");
    }
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string trace_path = args.out_dir + "/" + w->name + "-seed" +
                                   std::to_string(args.seed) + ".trace.json";
    std::ofstream out(trace_path);
    sink->WriteChromeJson(out);
    std::printf("trace: %s\n", trace_path.c_str());
  }

  // The negative self-test, so every run shows its checks can fail.
  if (RunSelfTest() != 0) report.Fail("self-test: a check did not fire");

  std::filesystem::remove_all(work_dir, ec);

  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  // Every metric measured is printed; the JSON holds the end-to-end
  // metrics, or with --trace 1 the per-layer ones (the end-to-end
  // numbers of a traced run include the tracing overhead).
  for (const auto* list : {&kEndToEnd, &kPerLayer}) {
    for (const auto& [name, unit] : *list) {
      if (m.all().count(name) != 0) {
        std::printf("metric %-30s %16.6f %s\n", name, m.Median(name), unit);
      }
    }
  }
  std::string json = "{\"correct\": ";
  json += report.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted.load());
  json += ", \"failed\": " + std::to_string(ops.failed.load());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : args.trace ? kPerLayer : kEndToEnd) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", m.Median(name));
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("attempted %llu failed %llu\n",
              (unsigned long long)ops.attempted.load(),
              (unsigned long long)ops.failed.load());
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dmc_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--out-dir DIR]\n"
                 "       dmc_perfbench --self-test\n");
    return 2;
  }
  if (args.self_test) return perfbench::RunSelfTest() == 0 ? 0 : 1;
  return perfbench::Run(args);
}
