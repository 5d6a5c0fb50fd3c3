// Helpers shared by the benchmark's programs: a monotonic clock and the
// readers for their input files.
#ifndef PERFBENCH_SRC_IO_H_
#define PERFBENCH_SRC_IO_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock (CLOCK_MONOTONIC on Linux) in nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The non-empty lines of a file; false if it cannot be read.
inline bool ReadLines(const std::string& path, std::vector<std::string>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) out->push_back(line);
  return true;
}

/// The documents of a NUL-delimited file; false if it cannot be read.
inline bool ReadDocs(const std::string& path, std::vector<std::string>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  for (std::string doc; std::getline(in, doc, '\0');) out->push_back(doc);
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_IO_H_
