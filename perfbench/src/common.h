// Small helpers shared by the benchmark program and its self-test: a seeded
// generator, clocks, order statistics and JSON string quoting.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's only randomness, so one seed fixes every
/// generated input.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int Range(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// Derives an independent seed for a named stream of a run.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001b3ULL + stream * 0x9e3779b97f4a7c15ULL + 17);
  rng.Next();
  return rng.Next();
}

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double UsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static const char* hex = "0123456789abcdef";
      out += "\\u00";
      out += hex[(c >> 4) & 0xf];
      out += hex[c & 0xf];
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
