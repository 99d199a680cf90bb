// Small numeric and text helpers shared by the benchmark's parts:
// percentiles over latency samples, "key=value" response fields, and
// the metric list the run prints at the end.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Percentile (q in [0, 1]) of `samples`, interpolating linearly between
/// the two nearest order statistics; 0 when empty. Sorts a copy.
double Percentile(std::vector<double> samples, double q);

double Mean(const std::vector<double>& samples);

/// The value of `key=` in a space-separated response line, or nullopt.
std::optional<double> FieldValue(std::string_view line, std::string_view key);

/// The text after `key=` up to the next space, or "" when absent.
std::string_view FieldText(std::string_view line, std::string_view key);

/// Sum (or, with `take_max`, maximum) of every sample of the Prometheus
/// family `name` in an exposition body, over all label sets.
double ExpositionValue(std::string_view exposition, std::string_view name,
                       bool take_max = false);

/// One reported figure. `samples` is how many observations it summarises
/// (0 for a single reading); `note` explains an n/a figure.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

/// Prints each metric as a "# metric ..." line, then the result object
/// as the last line of standard output.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

std::string JsonQuote(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
