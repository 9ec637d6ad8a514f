// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload serve_churn|tune_streamed --seed N
//             --seconds S --trace 0|1 --work-dir DIR --out FILE
//             [--spans FILE] [--git-sha SHA] [--source-digest HEX]
//
// Runs the untraced phase (end-to-end metrics) and, with --trace 1, a traced
// phase after it (per-layer metrics and the tracing overhead of each
// end-to-end metric). Writes the full result document to --out and the
// traced spans to --spans; prints a summary with every metric by name and
// unit. perfbench/run.py builds this binary and prints the final result
// line. Exit status 0 means the run completed; whether its outputs were
// correct is in the document.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/simd.hpp"
#include "obs/json_util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  RunOptions run;
  std::string work_dir;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --out FILE "
               "[--spans FILE] [--git-sha SHA] [--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage("bad argument '" + flag + "'");
    }
    values[flag] = argv[i + 1];
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--work-dir",
        "--out"}) {
    if (!values.count(required)) {
      usage(std::string("missing ") + required);
    }
  }
  for (const auto& [flag, value] : values) {
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.run.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      a.run.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) {
        usage("--trace expects 0 or 1");
      }
      a.trace = t == 1;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--source-digest") {
      a.source_digest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload != "serve_churn" && a.workload != "tune_streamed") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.run.seconds < 1.0) {
    usage("--seconds must be at least 1");
  }
  return a;
}

PhaseResult run_phase(const Args& a, bool traced) {
  if (a.workload == "serve_churn") {
    return run_serve_churn(a.run, traced);
  }
  return run_tune_streamed(a.run, traced);
}

std::string quoted(const std::string& s) {
  return std::string("\"") + hpb::obs::json_escape(s) + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string env_json(const Args& a) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"usable_cpus\":" + std::to_string(usable) +
         ",\"cpu_model\":" + quoted(cpu_model()) + ",\"simd_tier\":" +
         quoted(std::string(
             hpb::core::simd_tier_name(hpb::core::active_simd_tier()))) +
         ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + quoted(PERFBENCH_COMPILER) +
         ",\"git_sha\":" + quoted(a.git_sha) +
         ",\"source_digest\":" + quoted(a.source_digest) + "}";
}

std::string strings_json(const std::vector<std::string>& strings) {
  std::string out = "[";
  for (const std::string& s : strings) {
    out += out.size() > 1 ? "," : "";
    out += quoted(s);
  }
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    out += out.size() > 1 ? "," : "";
    out += quoted(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + quoted(m.unit) +
           ",\"samples\":" + std::to_string(m.samples);
    if (!m.values.empty()) {
      std::string values;
      for (double v : m.values) {
        values += values.empty() ? "" : ",";
        values += json_number(v);
      }
      out += ",\"summary\":" + quoted(m.how) + ",\"values\":[" + values +
             "]";
    }
    out += "}";
  }
  return out + "}";
}

std::string phase_json(const PhaseResult& p) {
  return "{\"attempted\":" + std::to_string(p.attempted) +
         ",\"failed\":" + std::to_string(p.failed) +
         ",\"steal_ticks\":" + std::to_string(p.steal_ticks) +
         ",\"late_samples\":" + std::to_string(p.late_samples) +
         ",\"digest\":" + quoted(p.digest) +
         ",\"check_failures\":" + strings_json(p.check_failures) +
         ",\"end_to_end\":" + metrics_json(p.end_to_end) +
         ",\"per_layer\":" + metrics_json(p.per_layer) +
         (p.detail_json.empty() ? "" : "," + p.detail_json) + "}";
}

/// Traced minus untraced, for every end-to-end metric.
std::string overhead_json(const PhaseResult& untraced,
                          const PhaseResult& traced) {
  std::string out = "{";
  for (std::size_t i = 0; i < untraced.end_to_end.size(); ++i) {
    const Metric& u = untraced.end_to_end[i];
    const Metric& t = traced.end_to_end[i];
    out += out.size() > 1 ? "," : "";
    out += quoted(u.name) + ":{\"untraced\":" + json_number(u.value) +
           ",\"traced\":" + json_number(t.value) +
           ",\"overhead\":" + json_number(t.value - u.value) +
           ",\"relative\":" +
           json_number(u.value != 0.0 ? (t.value - u.value) / u.value : 0.0) +
           ",\"unit\":" + quoted(u.unit) + "}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (!m.values.empty()) {
      std::printf("  %-42s %16.6f %-6s (n=%zu, %s)\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples, m.how.c_str());
    } else if (m.samples > 0) {
      std::printf("  %-42s %16.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-42s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

int run(const Args& a) {
  const fs::path home = fs::current_path();
  fs::create_directories(a.work_dir);
  fs::current_path(a.work_dir);  // journals and sockets live here

  const PhaseResult untraced = run_phase(a, false);
  PhaseResult traced;
  std::vector<std::string> failures = untraced.check_failures;
  if (a.trace) {
    traced = run_phase(a, true);
    failures.insert(failures.end(), traced.check_failures.begin(),
                    traced.check_failures.end());
    if (traced.digest != untraced.digest) {
      failures.push_back("traced digest " + traced.digest +
                         " differs from untraced digest " + untraced.digest);
    }
  }
  fs::current_path(home);
  fs::remove_all(a.work_dir);

  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  const bool correct = failures.empty() && failed == 0;
  const std::vector<Metric>& reported =
      a.trace ? traced.per_layer : untraced.end_to_end;

  std::string doc =
      "{\"workload\":" + quoted(a.workload) +
      ",\"seed\":" + std::to_string(a.run.seed) +
      ",\"seconds\":" + json_number(a.run.seconds) +
      ",\"trace\":" + (a.trace ? "1" : "0") + ",\"env\":" + env_json(a) +
      ",\"correct\":" + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(attempted) +
      ",\"failed\":" + std::to_string(failed) + ",\"error_share\":" +
      json_number(attempted > 0 ? static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                                : 0.0) +
      ",\"digest\":" + quoted(untraced.digest) +
      ",\"check_failures\":" + strings_json(failures) +
      ",\"metrics\":" + metrics_json(reported) +
      ",\"untraced\":" + phase_json(untraced);
  if (a.trace) {
    doc += ",\"traced\":" + phase_json(traced) +
           ",\"tracing_overhead\":" + overhead_json(untraced, traced);
  }
  doc += "}\n";
  std::ofstream(a.out) << doc;
  if (a.trace && !a.spans.empty()) {
    std::ofstream spans(a.spans);
    for (const std::string& line : traced.trace_lines) {
      spans << line << '\n';
    }
  }

  std::printf("perfbench %s seed %llu: %s, %llu attempted, %llu failed\n",
              a.workload.c_str(),
              static_cast<unsigned long long>(a.run.seed),
              correct ? "outputs correct" : "OUTPUT CHECKS FAILED",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& f : failures) {
    std::printf("  check failed: %s\n", f.c_str());
  }
  print_metrics("end-to-end (untraced):", untraced.end_to_end);
  if (a.trace) {
    print_metrics("end-to-end (traced):", traced.end_to_end);
    print_metrics("per-layer (traced):", traced.per_layer);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
