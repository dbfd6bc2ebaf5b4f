#include "rules/rule_index.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <numeric>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "util/atomic_io.h"
#include "util/failpoint.h"

namespace dmc {

namespace {

constexpr char kMagic[8] = {'D', 'M', 'C', 'R', 'I', 'D', 'X', '\n'};
constexpr char kEndMagic[4] = {'D', 'M', 'C', 'E'};
constexpr uint32_t kVersion = 1;
constexpr size_t kRecordBytes = 4 * sizeof(uint32_t);
/// Magic, version, generation, rule count.
constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 8 + 8;
/// Checksum, end magic.
constexpr size_t kTrailerBytes = 8 + sizeof(kEndMagic);

// A record is an ImplicationRule's four uint32 fields in declaration
// order and host byte order (as AppendLE/ReadLE write and read the
// header), so the record block copies to and from by_lhs_ whole.
static_assert(std::is_trivially_copyable_v<ImplicationRule>);
static_assert(sizeof(ImplicationRule) == kRecordBytes);
static_assert(offsetof(ImplicationRule, lhs) == 0 &&
              offsetof(ImplicationRule, rhs) == 4 &&
              offsetof(ImplicationRule, lhs_ones) == 8 &&
              offsetof(ImplicationRule, misses) == 12);

uint64_t Fnv1aInit() { return 1469598103934665603ULL; }

uint64_t Fnv1aUpdate(uint64_t h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
void AppendLE(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool ReadLE(const std::string& data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

Status Corrupt(const std::string& context, const std::string& what) {
  return DataLossError("rule index " + context + ": " + what);
}

constexpr uint64_t kLow32 = 0xFFFFFFFFULL;

// The exact fraction hits / ones that confidence orders by, packed as
// ones << 32 | hits. Clamped so a malformed rule (misses > lhs_ones) is
// confidence 0 instead of wrapping, and a zero-antecedent rule is 0/1.
uint64_t ConfidenceKey(const ImplicationRule& r) {
  const uint64_t hits = r.misses > r.lhs_ones ? 0 : r.lhs_ones - r.misses;
  const uint64_t ones = r.lhs_ones == 0 ? 1 : r.lhs_ones;
  return ones << 32 | hits;
}

// True iff key a's fraction is strictly greater than key b's, exactly:
// both halves are uint32, so the cross products fit in uint64.
bool KeyAbove(uint64_t a, uint64_t b) {
  return (a & kLow32) * (b >> 32) > (b & kLow32) * (a >> 32);
}

// Sets (*rank)[i] to the dense confidence rank of rules[i]: rank 0 is
// the highest confidence, and equal rationals (4/5, 16/20) share a rank.
// Only the C distinct fractions are sorted, so this takes expected
// O(n + C log C) time; confidence pruning caps misses at
// (1 - minconf) * ones(lhs), which keeps C small for a mined set.
// Returns the number of ranks.
uint32_t RankByConfidence(const std::vector<ImplicationRule>& rules,
                          std::vector<uint32_t>* rank) {
  std::unordered_map<uint64_t, uint32_t> class_of;
  std::vector<uint64_t> keys;
  rank->resize(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    const uint64_t key = ConfidenceKey(rules[i]);
    const auto [it, added] =
        class_of.try_emplace(key, static_cast<uint32_t>(keys.size()));
    if (added) keys.push_back(key);
    (*rank)[i] = it->second;
  }
  std::vector<uint32_t> by_conf(keys.size());
  std::iota(by_conf.begin(), by_conf.end(), 0);
  std::sort(by_conf.begin(), by_conf.end(), [&keys](uint32_t x, uint32_t y) {
    return KeyAbove(keys[x], keys[y]);
  });
  std::vector<uint32_t> class_rank(keys.size());
  uint32_t ranks = 0;
  for (size_t k = 0; k < by_conf.size(); ++k) {
    if (k > 0 && KeyAbove(keys[by_conf[k - 1]], keys[by_conf[k]])) ++ranks;
    class_rank[by_conf[k]] = ranks;
  }
  for (uint32_t& r : *rank) r = class_rank[r];
  return keys.empty() ? 0 : ranks + 1;
}

// Indices 0..n-1 stably counting-sorted by rank: within one rank they
// stay ascending.
std::vector<uint32_t> SortByRank(const std::vector<uint32_t>& rank,
                                 uint32_t num_ranks) {
  std::vector<uint32_t> start(size_t{num_ranks} + 1, 0);
  for (uint32_t r : rank) ++start[r + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<uint32_t> order(rank.size());
  for (uint32_t i = 0; i < rank.size(); ++i) order[start[rank[i]]++] = i;
  return order;
}

// Stable LSD radix sort of `order`, a permutation of 0..n-1, by
// key(i) <= max_key: one counting pass per 16-bit digit, so a key below
// 2^16 (the column ids of every paper workload) takes a single pass.
// The counts do not depend on the order, so they are taken in index
// order, which reads the keys sequentially.
template <typename Key>
void StableSortByKey(std::vector<uint32_t>* order, uint32_t max_key,
                     Key key) {
  constexpr uint32_t kDigitBits = 16;
  constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;
  const uint32_t n = static_cast<uint32_t>(order->size());
  std::vector<uint32_t> sorted(n);
  for (uint32_t shift = 0; shift < 32; shift += kDigitBits) {
    const uint32_t top = max_key >> shift;
    if (shift > 0 && top == 0) break;
    std::vector<uint32_t> start(size_t{std::min(top, kDigitMask)} + 2, 0);
    for (uint32_t i = 0; i < n; ++i) {
      ++start[((key(i) >> shift) & kDigitMask) + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (uint32_t i : *order) {
      sorted[start[(key(i) >> shift) & kDigitMask]++] = i;
    }
    order->swap(sorted);
  }
}

// Derives the two index orders from by_lhs, which is in (lhs, rank, rhs)
// order: the global TopK order (rank, lhs, rhs), because ascending
// by_lhs index within one rank is exactly HigherConfidence's (lhs, rhs)
// tie-break; then the consequent order (rhs, rank, lhs) as a stable
// re-sort of it by rhs.
void DeriveOrders(const std::vector<ImplicationRule>& by_lhs,
                  const std::vector<uint32_t>& rank, uint32_t num_ranks,
                  std::vector<uint32_t>* by_conf,
                  std::vector<uint32_t>* by_rhs) {
  *by_conf = SortByRank(rank, num_ranks);
  *by_rhs = *by_conf;
  uint32_t max_rhs = 0;
  for (const ImplicationRule& r : by_lhs) max_rhs = std::max(max_rhs, r.rhs);
  StableSortByKey(by_rhs, max_rhs,
                  [&by_lhs](uint32_t i) { return by_lhs[i].rhs; });
}

// True iff some antecedent's posting in `by_lhs` (grouped by lhs) names
// one consequent twice. Each posting goes through one reused hash table
// sized for it; a slot belongs to the current posting only while it
// carries that posting's stamp, so the table is never cleared.
bool RepeatsAPair(const std::vector<ImplicationRule>& by_lhs) {
  struct Slot {
    uint32_t stamp = 0;
    ColumnId rhs = 0;
  };
  std::vector<Slot> table;
  uint32_t stamp = 0;
  size_t end = 0;
  for (size_t begin = 0; begin < by_lhs.size(); begin = end) {
    end = begin + 1;
    while (end < by_lhs.size() && by_lhs[end].lhs == by_lhs[begin].lhs) ++end;
    int bits = 1;
    while ((size_t{1} << bits) < 2 * (end - begin)) ++bits;
    const size_t mask = (size_t{1} << bits) - 1;
    if (table.size() <= mask) table.resize(mask + 1);
    ++stamp;
    for (size_t i = begin; i < end; ++i) {
      const ColumnId rhs = by_lhs[i].rhs;
      size_t slot = (uint64_t{rhs} * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
      for (; table[slot].stamp == stamp; slot = (slot + 1) & mask) {
        if (table[slot].rhs == rhs) return true;
      }
      table[slot] = Slot{stamp, rhs};
    }
  }
  return false;
}

// True iff `rules` is strictly ascending by (lhs, rhs): the form
// ImplicationRuleSet::Canonicalize produces and every miner emits.
bool IsCanonical(const std::vector<ImplicationRule>& rules) {
  for (size_t i = 1; i < rules.size(); ++i) {
    if (!(rules[i - 1] < rules[i])) return false;
  }
  return true;
}

}  // namespace

bool HigherConfidence(const ImplicationRule& a, const ImplicationRule& b) {
  const uint64_t x = ConfidenceKey(a);
  const uint64_t y = ConfidenceKey(b);
  if (KeyAbove(x, y)) return true;
  if (KeyAbove(y, x)) return false;
  return std::tie(a.lhs, a.rhs) < std::tie(b.lhs, b.rhs);
}

std::shared_ptr<const RuleIndexSnapshot> RuleIndexSnapshot::Build(
    const ImplicationRuleSet& rules, uint64_t generation) {
  // Miners emit canonical sets; only other input pays for a sorted copy.
  ImplicationRuleSet canonical;
  const std::vector<ImplicationRule>* source = &rules.rules();
  if (!IsCanonical(*source)) {
    canonical = rules;
    canonical.Canonicalize();
    source = &canonical.rules();
  }
  const std::vector<ImplicationRule>& in = *source;

  auto snapshot = std::shared_ptr<RuleIndexSnapshot>(new RuleIndexSnapshot());
  snapshot->generation_ = generation;
  std::vector<uint32_t> lhs_rank;
  uint32_t num_ranks = 0;
  {
    std::vector<uint32_t> rank;
    num_ranks = RankByConfidence(in, &rank);
    // (rank, lhs, rhs), then stably by lhs: (lhs, rank, rhs).
    std::vector<uint32_t> order = SortByRank(rank, num_ranks);
    StableSortByKey(&order, in.empty() ? 0 : in.back().lhs,
                    [&in](uint32_t i) { return in[i].lhs; });
    snapshot->by_lhs_.resize(in.size());
    lhs_rank.resize(in.size());
    for (size_t k = 0; k < order.size(); ++k) {
      snapshot->by_lhs_[k] = in[order[k]];
      lhs_rank[k] = rank[order[k]];
    }
  }
  DeriveOrders(snapshot->by_lhs_, lhs_rank, num_ranks, &snapshot->by_conf_,
               &snapshot->by_rhs_);
  return snapshot;
}

std::vector<ImplicationRule> RuleIndexSnapshot::QueryByAntecedent(
    ColumnId lhs) const {
  const auto first = std::lower_bound(
      by_lhs_.begin(), by_lhs_.end(), lhs,
      [](const ImplicationRule& r, ColumnId value) { return r.lhs < value; });
  const auto last = std::upper_bound(
      by_lhs_.begin(), by_lhs_.end(), lhs,
      [](ColumnId value, const ImplicationRule& r) { return value < r.lhs; });
  return std::vector<ImplicationRule>(first, last);
}

std::vector<ImplicationRule> RuleIndexSnapshot::QueryByConsequent(
    ColumnId rhs) const {
  const auto first = std::lower_bound(
      by_rhs_.begin(), by_rhs_.end(), rhs,
      [this](uint32_t idx, ColumnId value) { return by_lhs_[idx].rhs < value; });
  const auto last = std::upper_bound(
      by_rhs_.begin(), by_rhs_.end(), rhs,
      [this](ColumnId value, uint32_t idx) { return value < by_lhs_[idx].rhs; });
  std::vector<ImplicationRule> out;
  out.reserve(static_cast<size_t>(last - first));
  for (auto it = first; it != last; ++it) out.push_back(by_lhs_[*it]);
  return out;
}

std::vector<ImplicationRule> RuleIndexSnapshot::TopK(size_t k) const {
  const size_t n = k == 0 ? by_conf_.size() : std::min(k, by_conf_.size());
  std::vector<ImplicationRule> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(by_lhs_[by_conf_[i]]);
  return out;
}

std::string RuleIndexSnapshot::Serialize() const {
  const size_t records = by_lhs_.size() * kRecordBytes;
  std::string out;
  out.reserve(kHeaderBytes + records + kTrailerBytes);
  out.append(kMagic, sizeof(kMagic));
  AppendLE<uint32_t>(&out, kVersion);
  AppendLE<uint64_t>(&out, generation_);
  AppendLE<uint64_t>(&out, static_cast<uint64_t>(by_lhs_.size()));
  out.append(reinterpret_cast<const char*>(by_lhs_.data()), records);
  AppendLE<uint64_t>(&out, Fnv1aUpdate(Fnv1aInit(), out.data(), out.size()));
  out.append(kEndMagic, sizeof(kEndMagic));
  return out;
}

StatusOr<std::shared_ptr<const RuleIndexSnapshot>> RuleIndexSnapshot::Deserialize(
    const std::string& data, const std::string& context) {
  if (data.size() < kHeaderBytes + kTrailerBytes) {
    return Corrupt(context,
                   "truncated (" + std::to_string(data.size()) + " bytes)");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(context, "bad magic");
  }
  if (std::memcmp(data.data() + data.size() - sizeof(kEndMagic), kEndMagic,
                  sizeof(kEndMagic)) != 0) {
    return Corrupt(context, "missing end marker");
  }
  const size_t body_size = data.size() - kTrailerBytes;
  size_t offset = sizeof(kMagic);
  uint32_t version = 0;
  (void)ReadLE(data, &offset, &version);
  if (version != kVersion) {
    return Corrupt(context, "unsupported version " + std::to_string(version));
  }
  uint64_t generation = 0;
  uint64_t count = 0;
  if (!ReadLE(data, &offset, &generation) || !ReadLE(data, &offset, &count)) {
    return Corrupt(context, "truncated header");
  }
  // Divide rather than multiply: count * kRecordBytes wraps for a
  // hostile count such as 2^60 + k.
  const size_t record_bytes = body_size - offset;
  if (record_bytes % kRecordBytes != 0 ||
      count != record_bytes / kRecordBytes) {
    return Corrupt(context, "rule count " + std::to_string(count) +
                                " does not match file size");
  }
  uint64_t stored_checksum = 0;
  {
    size_t checksum_offset = body_size;
    (void)ReadLE(data, &checksum_offset, &stored_checksum);
  }
  const uint64_t actual =
      Fnv1aUpdate(Fnv1aInit(), data.data(), body_size);
  if (actual != stored_checksum) {
    return Corrupt(context, "checksum mismatch");
  }

  // The records are by_lhs_ as Serialize wrote it; check that order
  // rather than re-sort, then derive the other two orders from it.
  auto snapshot = std::shared_ptr<RuleIndexSnapshot>(new RuleIndexSnapshot());
  snapshot->generation_ = generation;
  std::vector<ImplicationRule>& rules = snapshot->by_lhs_;
  rules.resize(count);
  if (count > 0) std::memcpy(rules.data(), data.data() + offset, record_bytes);
  std::vector<uint32_t> rank;
  const uint32_t num_ranks = RankByConfidence(rules, &rank);
  for (size_t i = 1; i < rules.size(); ++i) {
    if (std::tie(rules[i - 1].lhs, rank[i - 1], rules[i - 1].rhs) >=
        std::tie(rules[i].lhs, rank[i], rules[i].rhs)) {
      return Corrupt(context,
                     "records out of order at record " + std::to_string(i));
    }
  }
  // A pair repeated at two ranks passes the check above.
  if (RepeatsAPair(rules)) {
    return Corrupt(context, "records out of order: an (lhs, rhs) pair repeats");
  }
  DeriveOrders(rules, rank, num_ranks, &snapshot->by_conf_,
               &snapshot->by_rhs_);
  return std::shared_ptr<const RuleIndexSnapshot>(std::move(snapshot));
}

RuleIndex::RuleIndex()
    : snapshot_(RuleIndexSnapshot::Build(ImplicationRuleSet(), 0)) {}

std::shared_ptr<const RuleIndexSnapshot> RuleIndex::snapshot() const {
  MutexLock lock(mu_);
  return snapshot_;
}

void RuleIndex::Publish(const ImplicationRuleSet& rules) {
  // publish_mu_ serializes writers so the generation read below cannot
  // be stale; building outside mu_ keeps the linear-time Build off the
  // readers' lock — snapshot() only ever waits for the pointer swap.
  MutexLock publish_lock(publish_mu_);
  uint64_t next_generation = 0;
  {
    MutexLock lock(mu_);
    next_generation = snapshot_->generation() + 1;
  }
  std::shared_ptr<const RuleIndexSnapshot> built =
      RuleIndexSnapshot::Build(rules, next_generation);
  MutexLock lock(mu_);
  snapshot_ = std::move(built);
}

Status RuleIndex::Save(const std::string& path) const {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("rule_index.save"));
  }
  const std::string image = snapshot()->Serialize();
  AtomicFileWriter writer;
  DMC_RETURN_IF_ERROR(writer.Open(path));
  DMC_RETURN_IF_ERROR(writer.Write(image));
  return writer.Commit();
}

Status RuleIndex::Load(const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("rule_index.load"));
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return IOError("cannot open rule index: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return IOError("cannot size rule index: " + path);
  std::string image(static_cast<size_t>(size), '\0');
  if (!in.seekg(0) || !in.read(image.data(), size)) {
    return IOError("read failed for rule index: " + path);
  }
  DMC_ASSIGN_OR_RETURN(std::shared_ptr<const RuleIndexSnapshot> snapshot,
                       RuleIndexSnapshot::Deserialize(image, path));
  MutexLock publish_lock(publish_mu_);
  MutexLock lock(mu_);
  snapshot_ = std::move(snapshot);
  return Status::OK();
}

}  // namespace dmc
