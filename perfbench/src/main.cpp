// qucad workload benchmark program.
//
//   qucad_perfbench --workload <serve_wire|drift_adapt>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-dir <dir>] [--commit <id>]
//
// Runs one workload through the library's public API and prints, as the
// last line of standard output, one JSON object with the keys `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics on an
// untraced run, the per-layer metrics on a traced run. Run metadata goes on
// the line before it, as {"meta": {...}}. See perfbench/README.md.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// All digits of `value`, so run-to-run differences survive into the
/// result; non-finite values print as 0 (JSON has no NaN).
std::string format_double(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      const auto [p, ec] =
          std::from_chars(value.data(), value.data() + value.size(), args.seed);
      if (ec != std::errc() || p != value.data() + value.size()) return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: qucad_perfbench --workload <serve_wire|drift_adapt> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>] [--commit <id>]\n";
    return 2;
  }

  Result result;
  try {
    if (args.workload == "serve_wire") {
      result = run_serve_wire(args);
    } else if (args.workload == "drift_adapt") {
      result = run_drift_adapt(args);
    } else {
      std::cerr << "unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  note_run_metadata(result, args);

  // Every metric of this mode must be present. A per-layer metric the
  // workload's path never crosses is reported as 0 and listed in the meta.
  const auto& catalogue = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string off_path;
  for (const auto& [name, unit] : catalogue) {
    if (result.metrics.count(name) != 0) continue;
    if (!args.trace) {
      std::cerr << "internal error: end-to-end metric " << name << " missing\n";
      return 1;
    }
    result.metrics[name] = Metric{0.0, unit};
    off_path += (off_path.empty() ? "" : ",") + name;
  }
  if (!off_path.empty()) result.note("not_on_path", off_path);
  for (const std::string& failure : result.check_failures) {
    std::cerr << "output check failed: " << failure << "\n";
  }

  std::string meta = "{\"meta\": {";
  bool first = true;
  for (const auto& [key, value] : result.meta) {
    meta += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
    first = false;
  }
  meta += "}}";

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  first = true;
  for (const auto& [name, unit] : catalogue) {
    const Metric& m = result.metrics.at(name);
    line += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
            format_double(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  line += "}}";
  std::cout << meta << "\n" << line << std::endl;
  return 0;
}
