/**
 * @file
 * Per-process test file paths.  ctest runs every test case in its own
 * process, many at once; a fixed file name under the shared temp
 * directory would let two of them clobber each other's files.
 */
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

namespace mg {

/**
 * `TempDir()/mg-<pid>-<test name>/<file>`, creating the directory.  The
 * test name is the running test's full name, or its suite's name inside
 * SetUpTestSuite, with the '/' of parameterized names replaced by '_'.
 * The pid is that of the process that first called testPath, so a
 * forked child resolves the same paths as its parent.  The directories
 * are removed when that process exits normally.
 */
inline std::string
testPath(const std::string& file)
{
    static const pid_t owner = ::getpid();
    struct Created
    {
        std::vector<std::filesystem::path> dirs;

        ~Created()
        {
            if (::getpid() != owner) {
                return; // a forked child must not delete its parent's files
            }
            for (const std::filesystem::path& dir : dirs) {
                std::error_code ignored;
                std::filesystem::remove_all(dir, ignored);
            }
        }
    };
    static Created created;
    static std::mutex mutex; // tests call this from helper threads too

    const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
    std::string name = "global";
    if (const ::testing::TestInfo* info = unit.current_test_info()) {
        name = std::string(info->test_suite_name()) + "." + info->name();
    } else if (const ::testing::TestSuite* suite =
                   unit.current_test_suite()) {
        name = suite->name();
    }
    std::replace(name.begin(), name.end(), '/', '_');
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("mg-" + std::to_string(owner) + "-" + name);
    std::lock_guard<std::mutex> lock(mutex);
    if (std::filesystem::create_directories(dir)) {
        created.dirs.push_back(dir);
    }
    return (dir / file).string();
}

} // namespace mg
