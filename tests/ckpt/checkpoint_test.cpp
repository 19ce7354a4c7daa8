#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace quicksand::ckpt {
namespace {

constexpr const char* kAbortAfter = "QUICKSAND_CKPT_ABORT_AFTER";

// A typo'd kill hook must stop the run, not parse to "off" (or wrap to a
// huge count) and turn a kill-and-resume leg into an uninterrupted run
// that still passes its byte-identity check.
TEST(CheckpointWriter, MalformedAbortHookThrowsNamingTheVariable) {
  for (const char* raw : {"3x", "-1"}) {
    ::setenv(kAbortAfter, raw, 1);
    try {
      const CheckpointWriter writer(CheckpointWriter::Options{});
      ADD_FAILURE() << kAbortAfter << "=" << raw << " was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(kAbortAfter), std::string::npos)
          << error.what();
    }
  }
  ::setenv(kAbortAfter, "3", 1);
  EXPECT_NO_THROW(CheckpointWriter(CheckpointWriter::Options{}));
  ::unsetenv(kAbortAfter);
  EXPECT_NO_THROW(CheckpointWriter(CheckpointWriter::Options{}));
}

}  // namespace
}  // namespace quicksand::ckpt
