#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double position = q * static_cast<double>(samples.size() - 1);
  size_t below = static_cast<size_t>(position);
  if (below + 1 >= samples.size()) return samples.back();
  double fraction = position - static_cast<double>(below);
  return samples[below] + fraction * (samples[below + 1] - samples[below]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

std::string_view FieldText(std::string_view line, std::string_view key) {
  size_t pos = 0;
  while ((pos = line.find(key, pos)) != std::string_view::npos) {
    bool at_token = pos == 0 || line[pos - 1] == ' ';
    size_t after = pos + key.size();
    if (at_token && after < line.size() && line[after] == '=') {
      std::string_view rest = line.substr(after + 1);
      return rest.substr(0, rest.find_first_of(" \n"));
    }
    pos = after;
  }
  return {};
}

std::optional<double> FieldValue(std::string_view line, std::string_view key) {
  std::string_view text = FieldText(line, key);
  if (text.empty()) return std::nullopt;
  double value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc()) return std::nullopt;
  return value;
}

double ExpositionValue(std::string_view exposition, std::string_view name,
                       bool take_max) {
  double result = 0;
  size_t begin = 0;
  while (begin < exposition.size()) {
    size_t end = exposition.find('\n', begin);
    if (end == std::string_view::npos) end = exposition.size();
    std::string_view line = exposition.substr(begin, end - begin);
    begin = end + 1;
    if (!line.starts_with(name) || line.size() <= name.size()) continue;
    char next = line[name.size()];
    if (next != ' ' && next != '{') continue;
    std::string_view number = line.substr(line.rfind(' ') + 1);
    double value = 0;
    auto [ptr, ec] = std::from_chars(number.data(),
                                     number.data() + number.size(), value);
    if (ec != std::errc()) continue;
    result = take_max ? std::max(result, value) : result + value;
  }
  return result;
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# metric %-32s %14.6g %-6s samples=%llu%s%s\n",
                m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples),
                m.note.empty() ? "" : "  n/a: ", m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += JsonQuote(metrics[i].name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonQuote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
