#include "storage/path_stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/byte_codec.h"
#include "common/checksum.h"

namespace jpar {

namespace {

constexpr uint8_t kPayloadVersion = 2;

// Avalanche finalizer (the 64-bit murmur3 fmix). FNV-1a alone is too
// weak for HLL register selection: over short, similar keys its top
// byte barely varies, collapsing distinct values into a handful of
// registers and collapsing the estimate with them.
uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

void PathStats::Observe(const Item& item) {
  const uint64_t row = rows++;
  if (row >= kSampleFullRows && row % kSampleStride != 0) return;
  ++sampled;
  if (item.is_numeric()) {
    ++count_numeric;
    const double v = item.AsDouble();
    if (!has_minmax) {
      has_minmax = 1;
      min_value = max_value = v;
    } else {
      min_value = std::min(min_value, v);
      max_value = std::max(max_value, v);
    }
  } else if (item.is_string()) {
    ++count_string;
  } else if (item.is_boolean()) {
    ++count_bool;
  } else if (item.is_null()) {
    ++count_null;
  } else if (item.is_object()) {
    ++count_object;
  } else if (item.is_array()) {
    ++count_array;
  }
  // HLL over the group-key encoding — the same value-identity the
  // engine's group-by uses, so "distinct" here means what GROUPBY
  // would count.
  std::string key;
  item.AppendGroupKeyTo(&key);
  const uint64_t h = Mix64(Fnv1a64(key));
  const size_t reg = static_cast<size_t>(h >> 56);  // top 8 bits
  const uint64_t rest = (h << 8) | 1;               // rank <= 57
  const uint8_t rank =
      static_cast<uint8_t>(1 + __builtin_clzll(rest));
  hll[reg] = std::max(hll[reg], rank);
}

void PathStats::MergeFrom(const PathStats& other) {
  rows += other.rows;
  documents += other.documents;
  file_bytes = std::max(file_bytes, other.file_bytes);
  sampled += other.sampled;
  count_numeric += other.count_numeric;
  count_string += other.count_string;
  count_bool += other.count_bool;
  count_null += other.count_null;
  count_object += other.count_object;
  count_array += other.count_array;
  if (other.has_minmax) {
    if (!has_minmax) {
      has_minmax = 1;
      min_value = other.min_value;
      max_value = other.max_value;
    } else {
      min_value = std::min(min_value, other.min_value);
      max_value = std::max(max_value, other.max_value);
    }
  }
  for (size_t i = 0; i < kHllRegisters; ++i) {
    hll[i] = std::max(hll[i], other.hll[i]);
  }
}

double PathStats::DistinctEstimate() const {
  if (sampled == 0) return 0;
  constexpr double m = static_cast<double>(kHllRegisters);
  constexpr double alpha = 0.7213 / (1.0 + 1.079 / m);  // alpha_256
  double sum = 0;
  size_t zeros = 0;
  for (uint8_t r : hll) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double est = alpha * m * m / sum;
  if (est <= 2.5 * m && zeros > 0) {
    est = m * std::log(m / static_cast<double>(zeros));  // linear counting
  }
  // The sketch only saw `sampled` rows, so it can never honestly claim
  // more distincts than that.
  return std::min(est, static_cast<double>(sampled));
}

double PathStats::PresenceFraction() const {
  if (documents == 0) return rows > 0 ? 1.0 : 0.0;
  return std::min(1.0, static_cast<double>(rows) /
                           static_cast<double>(documents));
}

double PathStats::NumericFraction() const {
  if (sampled == 0) return 0;
  return static_cast<double>(count_numeric) / static_cast<double>(sampled);
}

double PathStats::MeanRowsPerDocument() const {
  if (documents == 0) return 0;
  return static_cast<double>(rows) / static_cast<double>(documents);
}

void AppendPathStatsPayload(const PathStats& stats, std::string* out) {
  out->push_back(static_cast<char>(kPayloadVersion));
  PutU64(stats.rows, out);
  PutU64(stats.documents, out);
  PutU64(stats.file_bytes, out);
  PutU64(stats.sampled, out);
  PutU64(stats.count_numeric, out);
  PutU64(stats.count_string, out);
  PutU64(stats.count_bool, out);
  PutU64(stats.count_null, out);
  PutU64(stats.count_object, out);
  PutU64(stats.count_array, out);
  out->push_back(static_cast<char>(stats.has_minmax));
  PutF64(stats.min_value, out);
  PutF64(stats.max_value, out);
  out->append(reinterpret_cast<const char*>(stats.hll.data()),
              stats.hll.size());
}

bool ParsePathStatsPayload(std::string_view data, PathStats* out) {
  if (data.empty() || static_cast<uint8_t>(data[0]) != kPayloadVersion) {
    return false;
  }
  size_t pos = 1;
  PathStats s;
  if (!GetU64(data, &pos, &s.rows) || !GetU64(data, &pos, &s.documents) ||
      !GetU64(data, &pos, &s.file_bytes) || !GetU64(data, &pos, &s.sampled) ||
      !GetU64(data, &pos, &s.count_numeric) ||
      !GetU64(data, &pos, &s.count_string) ||
      !GetU64(data, &pos, &s.count_bool) ||
      !GetU64(data, &pos, &s.count_null) ||
      !GetU64(data, &pos, &s.count_object) ||
      !GetU64(data, &pos, &s.count_array)) {
    return false;
  }
  if (data.size() - pos < 1) return false;
  s.has_minmax = static_cast<uint8_t>(data[pos++]) != 0 ? 1 : 0;
  if (!GetF64(data, &pos, &s.min_value) ||
      !GetF64(data, &pos, &s.max_value)) {
    return false;
  }
  if (data.size() - pos != PathStats::kHllRegisters) return false;
  std::memcpy(s.hll.data(), data.data() + pos, PathStats::kHllRegisters);
  // Internal consistency: the sample can't exceed the rows, and
  // non-finite bounds mean a corrupt payload, not data.
  if (s.sampled > s.rows) return false;
  if (s.has_minmax &&
      (!std::isfinite(s.min_value) || !std::isfinite(s.max_value) ||
       s.min_value > s.max_value)) {
    return false;
  }
  *out = s;
  return true;
}

}  // namespace jpar
