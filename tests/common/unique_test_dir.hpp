// A scratch directory of the running test's own under TempDir(): the full
// test name plus the pid. ctest runs every test (and every parameter
// instance) as its own process, in parallel under -j, so a fixed name
// lets one test's cleanup wipe another's files mid-run.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace ucr {

inline std::filesystem::path unique_test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::path(::testing::TempDir()) /
         ("ucr_" + name + "_" + std::to_string(::getpid()));
}

}  // namespace ucr
