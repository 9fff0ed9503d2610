#pragma once
// The host stamp: everything besides the code that a measurement depends
// on.  Every result carries it, and the comparator refuses to compare runs
// whose stamps differ in anything but the commit.

#include <string>

namespace bench {

/// One JSON object: nproc, cpu, compiler, build_type, flags, native,
/// pool_threads, commit.
[[nodiscard]] std::string host_stamp_json();

}  // namespace bench
