// Small numeric helpers shared by the harness: a monotonic clock in
// nanoseconds, order statistics, and the order-independent digest the
// delivery checker compares against ground truth.

#ifndef LADDERBENCH_STATS_H_
#define LADDERBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace ladder {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
/// closest ranks (numpy's default). 0 for an empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The q-quantile of a long sample series taken as the median of the
/// q-quantiles of up to ten consecutive windows of at least 1000 samples
/// each, so one transient stall of the host moves one window, not the
/// result. With fewer than 2000 samples this is Quantile(values, q).
inline double WindowedQuantile(const std::vector<double>& values, double q) {
  const size_t windows = std::min<size_t>(10, std::max<size_t>(1, values.size() / 1000));
  std::vector<double> per_window;
  const size_t step = values.size() / windows;
  for (size_t w = 0; w < windows; ++w) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(w * step);
    const auto last = w + 1 == windows ? values.end() : first + static_cast<std::ptrdiff_t>(step);
    per_window.push_back(Quantile(std::vector<double>(first, last), q));
  }
  return Median(std::move(per_window));
}

/// How many samples lie strictly above the q-quantile: the guide's test for
/// whether a tail percentile is backed by enough observations.
inline size_t CountAbove(const std::vector<double>& values, double q) {
  const double cut = Quantile(values, q);
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

inline uint64_t Mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Digest of one (sequence, fragment) delivery. Deliveries of a document are
/// combined by wrapping addition, so the per-document digest is a multiset
/// fingerprint: independent of arrival order, sensitive to a dropped,
/// duplicated or altered element.
inline uint64_t DeliveryDigest(uint64_t sequence, std::string_view fragment) {
  return Mix64(std::hash<std::string_view>{}(fragment) ^ Mix64(sequence));
}

}  // namespace ladder

#endif  // LADDERBENCH_STATS_H_
