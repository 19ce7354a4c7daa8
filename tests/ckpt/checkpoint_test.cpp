#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>

#include "ckpt/snapshot.hpp"

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

// A kill at any instant may cost only the shard in flight: after each
// Record the file on disk holds exactly the shards recorded so far.
TEST(CheckpointWriter, EveryRecordedShardIsDurable) {
  ::unsetenv(kAbortAfter);
  const std::string path = ::testing::TempDir() + "checkpoint_every_shard.ckpt";
  std::remove(path.c_str());
  CheckpointWriter::Options options;
  options.path = path;
  options.fingerprint = 91;
  options.total_shards = 5;
  CheckpointWriter writer(options);

  std::map<std::uint64_t, std::string> recorded;
  for (const std::uint64_t shard : {3u, 0u, 4u, 1u, 2u}) {
    const std::string payload = "shard-" + std::to_string(shard);
    writer.Record(shard, payload);
    recorded.emplace(shard, payload);

    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const SnapshotLoad load = DecodeSnapshot(bytes);
    ASSERT_TRUE(load.ok) << "after shard " << shard << ": " << load.error;
    EXPECT_EQ(load.snapshot.fingerprint, 91u);
    EXPECT_EQ(load.snapshot.total_shards, 5u);
    EXPECT_EQ(load.snapshot.payloads, recorded) << "after shard " << shard;
  }
  EXPECT_EQ(writer.new_records(), 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace quicksand::ckpt
