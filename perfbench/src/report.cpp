#include "report.h"

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("peak_rss_mib: no VmHWM in /proc/self/status");
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

SetupTimer::SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {
  constexpr std::int64_t kBatchNs = 2'000'000;
  // Size the batch from one warm call.
  setup_();
  const Clock::time_point start = Clock::now();
  setup_();
  const std::int64_t one = std::max<std::int64_t>(elapsed_ns(start, Clock::now()), 1);
  calls_ = std::max<std::int64_t>(1, kBatchNs / one);
}

void SetupTimer::sample() {
  const Clock::time_point start = Clock::now();
  for (std::int64_t c = 0; c < calls_; ++c) setup_();
  means_.push_back(seconds_since(start) / static_cast<double>(calls_));
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) ++failed;
}

void Result::output(const std::string& key, const std::string& value) {
  outputs_.emplace_back(key, value);
}

namespace {

[[nodiscard]] std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

}  // namespace

void Result::print(std::ostream& out, const std::string& workload,
                   std::uint64_t seed, bool smoke, bool traced) const {
  for (const std::string& text : notes_) out << "note " << text << '\n';
  for (const Check& c : checks_) {
    out << "check " << (c.ok ? "ok   " : "FAIL ") << c.name
        << (c.detail.empty() ? "" : ": " + c.detail) << '\n';
  }
  for (const auto& [key, value] : outputs_) {
    out << "output " << key << " = " << value << '\n';
  }
  for (const Metric& m : metrics_) {
    out << "metric " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  }
  std::ostringstream json;
  json << std::setprecision(std::numeric_limits<double>::max_digits10);
  json << "{\"workload\": " << quoted(workload) << ", \"seed\": " << seed
       << ", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"traced\": " << (traced ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"provenance\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"ndebug\": true}, \"outputs\": {";
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    json << (i ? ", " : "") << quoted(outputs_[i].first) << ": "
         << quoted(outputs_[i].second);
  }
  json << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    json << (i ? ", " : "") << quoted(metrics_[i].name)
         << ": {\"value\": " << metrics_[i].value
         << ", \"unit\": " << quoted(metrics_[i].unit) << '}';
  }
  json << "}}";
  out << json.str() << std::endl;
}

void require_release_build() {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a build without NDEBUG "
               "(build type " PERFBENCH_BUILD_TYPE ")\n";
  std::exit(3);
#endif
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void run_on_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed for cpu " + std::to_string(cpu));
  }
}

}  // namespace perfbench
