#include "host.hpp"

#include <sched.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace bench {

namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

/// The checked-out commit, read from the source tree's .git without running
/// git; "unknown" outside a git checkout.
std::string git_commit() {
  const std::string git = std::string(BENCH_SOURCE_ROOT) + "/.git";
  const std::string head = first_line(git + "/HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  const std::string loose = first_line(git + "/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(git + "/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    const auto space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref) {
      return line.substr(0, space);
    }
  }
  return "unknown";
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string host_stamp_json() {
  const char* pool = std::getenv("ABDHFL_POOL_THREADS");
  const std::vector<std::pair<std::string, std::string>> fields = {
      {"nproc", std::to_string(cpus_available())},
      {"cpu", cpu_model()},
      {"compiler", BENCH_COMPILER},
      {"build_type", BENCH_BUILD_TYPE},
      {"flags", BENCH_FLAGS},
      {"native", BENCH_NATIVE},
      {"pool_threads", pool != nullptr ? pool : "unset"},
      {"commit", git_commit()},
  };
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(fields[i].first) << ": "
        << quoted(fields[i].second);
  }
  out << '}';
  return out.str();
}

}  // namespace bench
