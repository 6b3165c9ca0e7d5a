// Per-test temp-file paths.  gtest_discover_tests runs every test case
// as its own ctest process, so under `ctest -j` two cases that write the
// same fixed name in ::testing::TempDir() overwrite each other's file.
// Deriving the name from the running test keeps each case's files
// private (tools/lint/rrp_lint.py flags `TempDir() + "literal"`).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace rrp::testing {

/// A path in ::testing::TempDir() owned by the running test:
/// "<suite>.<test>.<suffix>", with the '/' of parameterised names
/// replaced so the result stays a single file name.
inline std::string temp_path(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + suffix;
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name;
}

}  // namespace rrp::testing
