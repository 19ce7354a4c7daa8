// Runner tests against a fake shell-script "bench": cheap, controllable
// cells that succeed, fail, or hang on command, writing the minimal
// quicksand-bench-v1 summary the merge step consumes.

#include "xmat/runner.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "xmat/config.hpp"
#include "xmat/merge.hpp"

namespace quicksand::xmat {
namespace {

namespace fs = std::filesystem;

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("xmat_runner_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_ + "/bin");
    out_ = root_ + "/out";
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Installs `body` as an executable /bin/sh cell named fake_cell. Every
  /// script gets the arg plumbing that extracts --mode and --json.
  void InstallBench(const std::string& body) {
    const std::string path = root_ + "/bin/fake_cell";
    std::ofstream script(path);
    script << "#!/bin/sh\nmode=; json=;\n"
              "while [ $# -gt 0 ]; do\n"
              "  case \"$1\" in\n"
              "    --mode) mode=$2; shift 2;;\n"
              "    --json) json=$2; shift 2;;\n"
              "    *) shift;;\n"
              "  esac\n"
              "done\n"
           << body;
    script.close();
    ASSERT_EQ(::chmod(path.c_str(), 0755), 0);
  }

  static constexpr const char* kWriteJson =
      "printf '{\"schema\": \"quicksand-bench-v1\", \"results\": "
      "{\"mode\": \"%s\"}, \"run\": {}}\\n' \"$mode\" > \"$json\"\n";

  MatrixConfig Config(const std::string& extra = "") {
    return ParseMatrixConfig("bench = fake_cell\nretries = 1\n" + extra +
                             "axis.mode = a b c\n");
  }

  RunnerOptions Options() {
    RunnerOptions options;
    options.out_dir = out_;
    options.bench_dir = root_ + "/bin";
    options.no_backoff_sleep = true;
    return options;
  }

  std::string root_;
  std::string out_;
};

TEST_F(RunnerTest, RunsEveryCellAndMerges) {
  InstallBench(std::string(kWriteJson) + "exit 0\n");
  const MatrixConfig config = Config("summary_key = mode\n");
  const RunSummary summary = RunMatrix(config, Options());
  EXPECT_TRUE(summary.AllDone());
  EXPECT_EQ(summary.cells, 3u);
  EXPECT_EQ(summary.attempts, 3u);
  EXPECT_EQ(summary.retries, 0u);
  for (const Cell& cell : ExpandCells(config)) {
    EXPECT_TRUE(fs::exists(CellJsonPath(out_, cell))) << cell.id;
  }
  const MergeResult merged = MergeMatrix(config, out_);
  EXPECT_EQ(merged.merged, 3u);
  EXPECT_EQ(merged.gaps, 0u);
  EXPECT_NE(merged.table.find("\"b\""), std::string::npos) << merged.table;
}

TEST_F(RunnerTest, FailingCellRetriesThenQuarantines) {
  // Mode b always fails; a and c succeed.
  InstallBench(std::string("[ \"$mode\" = b ] && exit 9\n") + kWriteJson +
               "exit 0\n");
  const MatrixConfig config = Config();
  const RunSummary summary = RunMatrix(config, Options());
  EXPECT_FALSE(summary.AllDone());
  EXPECT_EQ(summary.done, 2u);
  EXPECT_EQ(summary.quarantined, 1u);
  EXPECT_EQ(summary.attempts, 4u);  // 2 clean + (1 try + 1 retry)
  EXPECT_EQ(summary.retries, 1u);

  const Manifest manifest = Manifest::Load(ManifestPath(out_), config.fingerprint,
                                           config.CellCount());
  EXPECT_EQ(manifest.Status(1).state, CellState::kQuarantined);
  EXPECT_EQ(manifest.Status(1).attempts, 2);
  EXPECT_EQ(manifest.Status(1).detail, "exit_9");

  // The quarantined cell is an explicit gap in the merged document.
  const MergeResult merged = MergeMatrix(config, out_);
  EXPECT_EQ(merged.merged, 2u);
  EXPECT_EQ(merged.gaps, 1u);
}

TEST_F(RunnerTest, ExitZeroWithoutSummaryIsAFailure) {
  InstallBench("exit 0\n");  // never writes $json
  const MatrixConfig config = Config();
  const RunSummary summary = RunMatrix(config, Options());
  EXPECT_EQ(summary.done, 0u);
  EXPECT_EQ(summary.quarantined, 3u);
  const Manifest manifest = Manifest::Load(ManifestPath(out_), config.fingerprint,
                                           config.CellCount());
  EXPECT_NE(manifest.Status(0).detail.find("no_JSON"), std::string::npos)
      << manifest.Status(0).detail;
}

TEST_F(RunnerTest, HungCellIsDeadlineKilledViaProcessGroup) {
  // Mode b wedges (a sleep grandchild keeps the pipe open); the watchdog
  // must kill the whole group, attribute the deadline, and move on.
  InstallBench(std::string("if [ \"$mode\" = b ]; then sleep 30; fi\n") +
               kWriteJson + "exit 0\n");
  MatrixConfig config = Config("timeout_ms = 500\nretries = 0\n");
  const RunSummary summary = RunMatrix(config, Options());
  EXPECT_EQ(summary.done, 2u);
  EXPECT_EQ(summary.quarantined, 1u);
  EXPECT_GE(summary.deadline_kills, 1u);
  const Manifest manifest = Manifest::Load(ManifestPath(out_), config.fingerprint,
                                           config.CellCount());
  EXPECT_NE(manifest.Status(1).detail.find("deadline"), std::string::npos)
      << manifest.Status(1).detail;
}

TEST_F(RunnerTest, ResumeSkipsDoneCells) {
  InstallBench(std::string(kWriteJson) + "exit 0\n");
  const MatrixConfig config = Config();
  const RunSummary first = RunMatrix(config, Options());
  ASSERT_TRUE(first.AllDone());

  RunnerOptions options = Options();
  options.resume = true;
  const RunSummary second = RunMatrix(config, options);
  EXPECT_TRUE(second.AllDone());
  EXPECT_EQ(second.skipped_done, 3u);
  EXPECT_EQ(second.attempts, 0u);  // nothing re-spawned
}

TEST_F(RunnerTest, ParallelJobsProduceTheSameMatrix) {
  InstallBench(std::string(kWriteJson) + "exit 0\n");
  const MatrixConfig config = Config();
  RunnerOptions options = Options();
  options.jobs = 3;
  const RunSummary summary = RunMatrix(config, options);
  EXPECT_TRUE(summary.AllDone());
  const MergeResult merged = MergeMatrix(config, out_);
  EXPECT_EQ(merged.merged, 3u);
}

TEST_F(RunnerTest, MissingBenchFailsLoudly) {
  const MatrixConfig config = Config();
  EXPECT_THROW(static_cast<void>(RunMatrix(config, Options())),
               std::runtime_error);
}

TEST_F(RunnerTest, CellEnvReachesTheChild) {
  InstallBench(
      "printf '{\"schema\": \"quicksand-bench-v1\", \"results\": "
      "{\"hook\": \"%s\"}, \"run\": {}}\\n' \"$XMAT_TEST_HOOK\" > \"$json\"\n"
      "exit 0\n");
  const MatrixConfig config = Config("summary_key = hook\n");
  RunnerOptions options = Options();
  options.cell_env = {"XMAT_TEST_HOOK=wired"};
  const RunSummary summary = RunMatrix(config, options);
  EXPECT_TRUE(summary.AllDone());
  const MergeResult merged = MergeMatrix(config, out_);
  EXPECT_NE(merged.table.find("wired"), std::string::npos) << merged.table;
}

TEST_F(RunnerTest, MergeKeepsSeededMetricsOnly) {
  InstallBench(
      "printf '{\"schema\": \"quicksand-bench-v1\", \"results\": {\"mode\": \"%s\"}, "
      "\"counters\": {\"core.work\": 3}, \"gauges\": {\"core.level\": 2}, "
      "\"run\": {\"counters\": {\"exec.pool.tasks_run\": 9, \"pop.rotations\": 4}, "
      "\"gauges\": {\"feed.peak_resident_updates\": 5}, \"histograms\": {}}}\\n' "
      "\"$mode\" > \"$json\"\nexit 0\n");
  const MatrixConfig config = Config();
  ASSERT_TRUE(RunMatrix(config, Options()).AllDone());
  const MergeResult merged = MergeMatrix(config, out_);
  const obs::JsonValue* cells = merged.document.Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->elements().size(), 3u);
  for (const obs::JsonValue& cell : cells->elements()) {
    ASSERT_NE(cell.Find("counters"), nullptr);
    ASSERT_NE(cell.Find("gauges"), nullptr);
    EXPECT_EQ(cell.Find("counters")->Dump(), "{\"core.work\":3}");
    EXPECT_EQ(cell.Find("gauges")->Dump(), "{\"core.level\":2}");
    EXPECT_EQ(cell.Find("run"), nullptr);
  }
}

TEST_F(RunnerTest, MergeRefusesCellWithoutRunSection) {
  // A summary written before the stability split keeps run-shaped metrics
  // in its top-level maps; merging it would leak them into matrix.json.
  InstallBench(
      "printf '{\"schema\": \"quicksand-bench-v1\", \"results\": {}, "
      "\"counters\": {\"exec.pool.tasks_run\": 9}}\\n' > \"$json\"\nexit 0\n");
  const MatrixConfig config = Config();
  ASSERT_TRUE(RunMatrix(config, Options()).AllDone());
  const std::string first_cell = CellJsonPath(out_, ExpandCells(config).front());
  try {
    (void)MergeMatrix(config, out_);
    FAIL() << "merge accepted a cell summary without a run section";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(first_cell), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace quicksand::xmat
