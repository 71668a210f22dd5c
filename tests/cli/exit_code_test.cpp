// End-to-end CLI contract, driven against the real check_cli binary (path
// injected as RCONS_CHECK_CLI by CMake):
//
//   exit 0  every scenario clean
//   exit 1  at least one property violation (dominates truncation)
//   exit 2  invalid input — bad flags, bad spec, unusable checkpoint — or
//           a final checkpoint that could not be written
//   exit 3  at least one scenario truncated (budget/sentinel), none violating
//
// plus the headline robustness story: the process dies mid-run (fault
// injection stands in for SIGKILL), the durable checkpoint survives, and
// --resume finishes with the same visited count and verdict as an
// uninterrupted run.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "support/checkpoint_bytes.hpp"

namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "rcons_cli_" + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

// Runs check_cli with `args`, capturing combined output. std::system goes
// through the shell, so exit codes come back WEXITSTATUS-encoded.
RunResult run_cli(const std::string& args, const std::string& tag) {
  const std::string out_path = temp_path("out_" + tag + ".txt");
  const std::string command =
      std::string(RCONS_CHECK_CLI) + " " + args + " > " + out_path + " 2>&1";
  const int raw = std::system(command.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  result.output = text.str();
  std::remove(out_path.c_str());
  return result;
}

TEST(CliExitCodeTest, CleanRunExitsZero) {
  const std::string spec = temp_path("clean.spec");
  write_file(spec, "type=Sn(2) n=2 model=independent budget=2\n");
  const RunResult result = run_cli(spec + " --strategy=bfs --threads=2", "clean");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("clean"), std::string::npos);
}

TEST(CliExitCodeTest, ViolationExitsOne) {
  const std::string spec = temp_path("viol.spec");
  write_file(spec, "type=register n=2 budget=0 algo=naive-register\n");
  const RunResult result = run_cli(spec + " --strategy=bfs --threads=2", "viol");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("VIOLATION"), std::string::npos);
}

TEST(CliExitCodeTest, InvalidInputExitsTwo) {
  const std::string bad_spec = temp_path("bad.spec");
  write_file(bad_spec, "type=NoSuchType n=2\n");
  EXPECT_EQ(run_cli(bad_spec, "badspec").exit_code, 2);
  // Family names outside their domain are unknown types, not aborts.
  const std::string bad_family = temp_path("badfamily.spec");
  write_file(bad_family, "type=Sn(1) n=2 budget=1\n");
  EXPECT_EQ(run_cli(bad_family, "badfamily").exit_code, 2);
  EXPECT_EQ(run_cli("--no-such-flag", "badflag").exit_code, 2);
  const std::string spec = temp_path("ok.spec");
  write_file(spec, "type=Sn(2) n=2 budget=2\n");
  EXPECT_EQ(
      run_cli(spec + " --strategy=bfs --resume=" + temp_path("absent.ckpt"),
              "absent")
          .exit_code,
      2);
  EXPECT_EQ(run_cli(spec + " --fault-inject=explode@batch=1", "badfault").exit_code,
            2);
  EXPECT_EQ(run_cli(spec + " --checkpoint-every=10", "everynoout").exit_code, 2);
  // Numeric flags take a plain non-negative decimal (--runs at least 1).
  for (const char* flag : {"--threads=-3", "--threads=abc", "--threads=4x", "--threads=",
                           "--runs=-5", "--runs=0", "--seed=xyz", "--seed=-1"}) {
    EXPECT_EQ(run_cli(spec + " " + flag, "badnumber").exit_code, 2) << flag;
  }
  // A corpus schedule replayed under a scenario that cannot produce its
  // crash: no crash budget, or the simultaneous model (crash-all only).
  std::ifstream corpus(std::string(RCONS_SOURCE_DIR) + "/tests/corpus/halting-tas.viol");
  std::ostringstream text;
  text << corpus.rdbuf();
  const std::string viol = text.str();
  for (const auto& [from, to] : {std::pair<std::string, std::string>{"budget=1", "budget=0"},
                                 {"model=independent", "model=simultaneous"}}) {
    const std::size_t at = viol.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    const std::string path = temp_path("unreachable.viol");
    write_file(path, std::string(viol).replace(at, from.size(), to));
    const RunResult result = run_cli(path, "unreachable");
    EXPECT_EQ(result.exit_code, 2) << to << "\n" << result.output;
  }
  // A file without its property line does not parse.
  const std::string property_line = "property agreement\n";
  const std::size_t at = viol.find(property_line);
  ASSERT_NE(at, std::string::npos);
  const std::string untyped = temp_path("untyped.viol");
  write_file(untyped, std::string(viol).erase(at, property_line.size()));
  const RunResult result = run_cli(untyped, "untyped");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("missing property line"), std::string::npos) << result.output;
}

TEST(CliExitCodeTest, UnwritableCheckpointExitsTwoAndNamesThePath) {
  // A run asked for a durable checkpoint that it could not write: the
  // verdict table still prints, the write error goes to stderr, and the
  // exit code says the run has no checkpoint to resume from.
  const std::string spec = temp_path("ckpt_dir.spec");
  write_file(spec, "type=Sn(2) n=2 model=independent budget=2\n");
  const std::string path = "/nonexistent/dir/x.ckpt";
  const RunResult result =
      run_cli(spec + " --threads=2 --checkpoint-out=" + path, "ckpt_dir");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("clean"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find(path), std::string::npos) << result.output;
}

TEST(CliExitCodeTest, DefaultSpecFileRunsClean) {
  const RunResult result = run_cli(
      std::string(RCONS_SOURCE_DIR) + "/examples/scenarios/default.spec", "default");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("16/16 scenarios clean"), std::string::npos)
      << result.output;
}

TEST(CliExitCodeTest, HaltingSpecsKeepTheExitContract) {
  // algo=halting builds its programs over a transition cache of the spec's
  // type; the cache must own that type, or every step reads freed memory and
  // the run dies on a signal instead of exiting 0 or 1.
  const std::string spec = temp_path("halting.spec");
  write_file(spec,
             "type=compare-and-swap n=2 budget=1 algo=halting\n"
             "type=Sn(3) n=3 budget=1 algo=halting\n");
  for (const char* strategy : {"auto", "dfs", "bfs"}) {
    const RunResult result = run_cli(spec + " --strategy=" + strategy + " --threads=2",
                                     std::string("halting_") + strategy);
    EXPECT_TRUE(result.exit_code == 0 || result.exit_code == 1)
        << strategy << " exited " << result.exit_code << "\n"
        << result.output;
  }
}

TEST(CliExitCodeTest, TruncationExitsThree) {
  const std::string spec = temp_path("trunc.spec");
  write_file(spec, "type=Sn(3) n=3 budget=2 max_visited=100\n");
  const RunResult result = run_cli(spec + " --strategy=bfs --threads=2", "trunc");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("TRUNCATED(visited-cap)"), std::string::npos)
      << result.output;
}

TEST(CliExitCodeTest, ViolationDominatesTruncation) {
  // One violating scenario + one truncated scenario in the same file: the
  // exit code reports the violation.
  const std::string spec = temp_path("both.spec");
  write_file(spec,
             "type=register n=2 budget=0 algo=naive-register\n"
             "type=Sn(3) n=3 budget=2 max_visited=100\n");
  const RunResult result = run_cli(spec + " --strategy=bfs --threads=2", "both");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("VIOLATION"), std::string::npos);
  EXPECT_NE(result.output.find("TRUNCATED"), std::string::npos);
}

TEST(CliExitCodeTest, TimeLimitTruncationIsTypedInTheVerdictTable) {
  const std::string spec = temp_path("deadline.spec");
  write_file(spec, "type=Sn(4) n=4 budget=2 time_limit=1\n");
  const RunResult result = run_cli(
      spec + " --strategy=bfs --threads=2 --sentinel-interval-ms=1", "deadline");
  EXPECT_EQ(result.exit_code, 3) << result.output;
  EXPECT_NE(result.output.find("TRUNCATED(deadline)"), std::string::npos)
      << result.output;
}

std::string visited_of(const std::string& table_output) {
  // The verdict table row: | scenario | strategy | verdict | visited | ...
  // One scenario → one data row; grab column 4 of the last data row.
  std::istringstream lines(table_output);
  std::string line, last;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '|' && line.find("visited") == std::string::npos &&
        line.find("---") == std::string::npos) {
      last = line;
    }
  }
  std::istringstream cells(last);
  std::string cell;
  int column = 0;
  while (std::getline(cells, cell, '|')) {
    if (++column == 5) {  // leading empty cell, then scenario/strategy/verdict
      const std::size_t begin = cell.find_first_not_of(' ');
      const std::size_t end = cell.find_last_not_of(' ');
      return begin == std::string::npos ? "" : cell.substr(begin, end - begin + 1);
    }
  }
  return "";
}

TEST(CliExitCodeTest, KillAndResumeReproducesVisitedAndVerdict) {
  const std::string spec = temp_path("kill.spec");
  write_file(spec, "type=Sn(4) n=4 model=independent budget=1\n");
  const std::string ckpt = temp_path("kill.ckpt");
  std::remove(ckpt.c_str());

  // Ground truth from an uninterrupted run.
  const RunResult full =
      run_cli(spec + " --strategy=bfs --threads=4", "kill_full");
  ASSERT_EQ(full.exit_code, 0) << full.output;
  const std::string expected_visited = visited_of(full.output);
  ASSERT_FALSE(expected_visited.empty()) << full.output;

  // Die mid-run (the in-tree stand-in for SIGKILL: same "no cleanup runs"
  // semantics), at the start of the second checkpoint write: the first is
  // already renamed into place, so the death and a surviving checkpoint both
  // hold by construction. A 38,837-state run past 1,000 states per
  // checkpoint writes at least one periodic checkpoint before its final one.
  const RunResult killed = run_cli(
      spec + " --strategy=bfs --threads=4 --checkpoint-out=" + ckpt +
          " --checkpoint-every=1000 --sentinel-interval-ms=1 "
          "--fault-inject=die@ckpt-write=2",
      "kill_die");
  ASSERT_EQ(killed.exit_code, 137) << killed.output;
  ASSERT_TRUE(std::ifstream(ckpt).good()) << "no durable checkpoint survived the death";

  // Resume: byte-identical visited count, same clean verdict.
  const RunResult resumed = run_cli(
      spec + " --strategy=bfs --threads=4 --resume=" + ckpt, "kill_resume");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(visited_of(resumed.output), expected_visited) << resumed.output;
  EXPECT_NE(resumed.output.find("clean"), std::string::npos);
  std::remove(ckpt.c_str());
}

TEST(CliExitCodeTest, CorruptCheckpointIsRejectedUnlessFreshFallback) {
  const std::string spec = temp_path("corrupt.spec");
  write_file(spec, "type=Sn(2) n=2 budget=2\n");
  const std::string ckpt = temp_path("corrupt.ckpt");
  const RunResult seeded = run_cli(
      spec + " --strategy=bfs --threads=2 --checkpoint-out=" + ckpt, "corrupt_seed");
  ASSERT_EQ(seeded.exit_code, 0) << seeded.output;

  // Flip a byte in the middle of the file.
  {
    std::fstream file(ckpt, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    ASSERT_GT(size, 64);
    file.seekg(size / 2);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }

  const RunResult rejected = run_cli(
      spec + " --strategy=bfs --threads=2 --resume=" + ckpt, "corrupt_resume");
  EXPECT_EQ(rejected.exit_code, 2) << rejected.output;
  EXPECT_NE(rejected.output.find("CRC"), std::string::npos) << rejected.output;

  // --resume-or-fresh downgrades the corrupt checkpoint to a warning and a
  // fresh (clean, exit 0) run.
  const RunResult fresh = run_cli(
      spec + " --strategy=bfs --threads=2 --resume-or-fresh=" + ckpt,
      "corrupt_fresh");
  EXPECT_EQ(fresh.exit_code, 0) << fresh.output;
  EXPECT_NE(fresh.output.find("starting fresh"), std::string::npos) << fresh.output;
  std::remove(ckpt.c_str());
}

TEST(CliExitCodeTest, ResumeRejectsAVersionFourCheckpoint) {
  const std::string spec = temp_path("v4.spec");
  write_file(spec, "type=Sn(2) n=2 budget=2\n");
  const std::string ckpt = temp_path("v4.ckpt");
  const RunResult seeded =
      run_cli(spec + " --strategy=bfs --threads=2 --checkpoint-out=" + ckpt, "v4_seed");
  ASSERT_EQ(seeded.exit_code, 0) << seeded.output;

  // The same file, stamped as format version 4 with a valid CRC.
  std::string bytes;
  {
    std::ifstream in(ckpt, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    bytes = text.str();
  }
  ASSERT_GT(bytes.size(), 12u);
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << rcons::test::with_checkpoint_version(bytes, 4);
  }
  const RunResult rejected =
      run_cli(spec + " --strategy=bfs --threads=2 --resume=" + ckpt, "v4_resume");
  EXPECT_EQ(rejected.exit_code, 2) << rejected.output;
  EXPECT_NE(rejected.output.find("unsupported version 4"), std::string::npos)
      << rejected.output;
  std::remove(ckpt.c_str());
}

TEST(CliExitCodeTest, ResumeRejectsACheckpointFromAnotherScenario) {
  const std::string spec_a = temp_path("scen_a.spec");
  const std::string spec_b = temp_path("scen_b.spec");
  write_file(spec_a, "type=Sn(2) n=2 budget=2\n");
  write_file(spec_b, "type=Sn(2) n=2 budget=3\n");
  const std::string ckpt = temp_path("scen.ckpt");
  ASSERT_EQ(run_cli(spec_a + " --strategy=bfs --checkpoint-out=" + ckpt, "scen_seed")
                .exit_code,
            0);
  const RunResult result =
      run_cli(spec_b + " --strategy=bfs --resume=" + ckpt, "scen_cross");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("different scenario"), std::string::npos)
      << result.output;
  std::remove(ckpt.c_str());
}

}  // namespace
