#include "core/history_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/fsio.hpp"

namespace hpb::core {
namespace {

std::vector<std::string> split_line(const std::string& line) {
  // Manual scan rather than getline(is, field, ','): getline drops a
  // trailing empty field, which silently shifted every column left on rows
  // ending in a comma instead of failing the field-count check.
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = line.find(',', start);
    const std::string field =
        comma == std::string::npos ? line.substr(start)
                                   : line.substr(start, comma - start);
    const auto begin = field.find_first_not_of(" \t\r");
    const auto end = field.find_last_not_of(" \t\r");
    fields.push_back(begin == std::string::npos
                         ? std::string{}
                         : field.substr(begin, end - begin + 1));
    if (comma == std::string::npos) {
      return fields;
    }
    start = comma + 1;
  }
}

/// Shortest decimal form that parses back to exactly the same double, so
/// warm-started histories reproduce their objectives bitwise (plain
/// `out << y` truncates to 6 significant digits — a real loss on datasets
/// whose objectives differ in the 7th digit, e.g. systolic latencies).
std::string format_double(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  HPB_REQUIRE(ec == std::errc(), "format_double: conversion failed");
  return std::string(buf, ptr);
}

}  // namespace

void write_history_csv(std::ostream& out, const space::ParameterSpace& space,
                       std::span<const Observation> observations) {
  // The status column is only emitted when some observation failed, so
  // histories from failure-free runs keep the legacy layout readable by
  // TabularObjective and older tools.
  const bool with_status =
      std::any_of(observations.begin(), observations.end(),
                  [](const Observation& o) { return !o.ok(); });
  for (std::size_t p = 0; p < space.num_params(); ++p) {
    out << space.param(p).name() << ',';
  }
  out << "objective";
  if (with_status) {
    out << ",status";
  }
  out << '\n';
  for (const auto& obs : observations) {
    HPB_REQUIRE(obs.config.size() == space.num_params(),
                "write_history_csv: configuration size mismatch");
    for (std::size_t p = 0; p < space.num_params(); ++p) {
      if (space.param(p).is_discrete()) {
        out << space.param(p).level_label(obs.config.level(p));
      } else {
        out << format_double(obs.config[p]);
      }
      out << ',';
    }
    out << format_double(obs.y);
    if (with_status) {
      out << ',' << tabular::status_name(obs.status);
    }
    out << '\n';
  }
}

void write_history_csv(const std::string& path,
                       const space::ParameterSpace& space,
                       std::span<const Observation> observations) {
  // Atomic replace (tmp + fsync + rename): a crash mid-write can never
  // leave a truncated CSV where a previous complete one stood.
  std::ostringstream out;
  write_history_csv(out, space, observations);
  fs::write_file_atomic(path, out.str());
}

std::size_t warm_start_from_csv(std::istream& in,
                                const space::ParameterSpace& space,
                                Tuner& tuner) {
  std::string line;
  HPB_REQUIRE(static_cast<bool>(std::getline(in, line)),
              "warm_start_from_csv: missing header");
  const auto header = split_line(line);
  const bool with_status = !header.empty() && header.back() == "status";
  const std::size_t expected =
      space.num_params() + 1 + (with_status ? 1 : 0);
  HPB_REQUIRE(header.size() == expected,
              "warm_start_from_csv: header has " +
                  std::to_string(header.size()) + " columns, expected " +
                  std::to_string(expected));
  const std::size_t objective_col = space.num_params();
  HPB_REQUIRE(header[objective_col] == "objective",
              "warm_start_from_csv: column " +
                  std::to_string(objective_col) +
                  " must be 'objective', got '" + header[objective_col] +
                  "'");
  // Parameter columns may be reordered relative to the space; map by name.
  std::vector<std::size_t> param_of_column(objective_col);
  for (std::size_t c = 0; c < objective_col; ++c) {
    param_of_column[c] = space.index_of(header[c]);
  }

  // Label -> level index per parameter, built lazily.
  std::vector<std::unordered_map<std::string, std::size_t>> level_of(
      space.num_params());
  for (std::size_t p = 0; p < space.num_params(); ++p) {
    if (!space.param(p).is_discrete()) {
      continue;
    }
    for (std::size_t l = 0; l < space.param(p).num_levels(); ++l) {
      level_of[p].emplace(space.param(p).level_label(l), l);
    }
  }

  std::size_t replayed = 0;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    const auto fields = split_line(line);
    HPB_REQUIRE(fields.size() == header.size(),
                "warm_start_from_csv: bad field count on line " +
                    std::to_string(line_no));
    std::vector<double> values(space.num_params(), 0.0);
    for (std::size_t c = 0; c < objective_col; ++c) {
      const std::size_t p = param_of_column[c];
      const std::string& cell = fields[c];
      if (space.param(p).is_discrete()) {
        const auto it = level_of[p].find(cell);
        HPB_REQUIRE(it != level_of[p].end(),
                    "warm_start_from_csv: unknown level '" + cell +
                        "' for parameter " + space.param(p).name());
        values[p] = static_cast<double>(it->second);
      } else {
        double v = 0.0;
        const auto [ptr, ec] =
            std::from_chars(cell.data(), cell.data() + cell.size(), v);
        HPB_REQUIRE(ec == std::errc{} && ptr == cell.data() + cell.size(),
                    "warm_start_from_csv: bad continuous value '" + cell +
                        "'");
        values[p] = v;
      }
    }
    tabular::EvalStatus status = tabular::EvalStatus::kOk;
    if (with_status) {
      status = tabular::status_from_name(fields.back());
    }
    space::Configuration config(std::move(values));
    // Tuners count every replayed row against their candidate pool, so a
    // row outside the valid set would make the pool look exhausted early.
    HPB_REQUIRE(space.satisfies(config),
                "warm_start_from_csv: configuration on line " +
                    std::to_string(line_no) +
                    " violates the space's constraints");
    if (status == tabular::EvalStatus::kOk) {
      double y = 0.0;
      const std::string& y_cell = fields[objective_col];
      const auto [ptr, ec] =
          std::from_chars(y_cell.data(), y_cell.data() + y_cell.size(), y);
      HPB_REQUIRE(ec == std::errc{} && ptr == y_cell.data() + y_cell.size(),
                  "warm_start_from_csv: bad objective '" + y_cell + "'");
      tuner.observe(std::move(config), y);
    } else {
      // Failed rows carry no usable objective ("nan"); replay the verdict.
      tuner.observe_failure(std::move(config), status);
    }
    ++replayed;
  }
  return replayed;
}

std::size_t warm_start_from_csv(const std::string& path,
                                const space::ParameterSpace& space,
                                Tuner& tuner) {
  std::ifstream in(path);
  HPB_REQUIRE(in.good(), "warm_start_from_csv: cannot open '" + path + "'");
  return warm_start_from_csv(in, space, tuner);
}

}  // namespace hpb::core
