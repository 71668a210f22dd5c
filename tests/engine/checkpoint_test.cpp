// Durable checkpoints: byte-exact round-trips, a loader that rejects every
// corruption we can synthesize, torn-write atomicity under fault injection,
// and the headline contract — a resumed run finishes with the same visited
// count and verdict as an uninterrupted one.
#include "engine/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/scenario_spec.hpp"
#include "check/spec_system.hpp"
#include "engine/fault_inject.hpp"
#include "obs/metrics.hpp"
#include "support/checkpoint_bytes.hpp"
#include "support/stats_contract.hpp"

namespace rcons::engine {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "rcons_ckpt_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CheckpointData sample_data() {
  CheckpointData data;
  data.config_hash = 0x1234'5678'9abc'def0ULL;
  data.label = "type=Sn(3) n=3 model=independent budget=2 algo=team";
  data.root_fp = {0xdeadbeefULL, 0xfeedfaceULL};
  data.stats.visited = 6081;
  data.stats.transitions = 40000;
  data.stats.decisions = 123;
  data.stats.terminal_states = 456;
  data.stats.orbit_skipped = 7;
  data.stats.encodes = 6100;
  data.stats.canonical_hits = 19;
  data.stats.duplicates = 33000;
  data.stats.violation_edges = 912;
  data.stats.cas_retries = 17;
  data.stats.max_probe = 41;
  data.stats.checkpoints_written = 3;
  data.has_violation = true;
  data.violation_description = "agreement violated: outputs {1, 2}";
  data.violation_property = sim::PropertyKind::kAgreement;
  data.violation_param = 0;
  data.violation_schedule = {sim::ScheduleEvent{sim::ScheduleEvent::Kind::kStep, 1},
                             sim::ScheduleEvent{sim::ScheduleEvent::Kind::kCrash, 0}};
  data.nodes.push_back({{1, 2}, {10, 20, 30}});
  data.nodes.push_back({{3, 4}, {}});
  data.nodes.push_back({{5, 6}, {-1, 0x7fffffffffffffffLL}});
  data.frontier = {2, 0};
  return data;
}

void expect_equal(const CheckpointData& a, const CheckpointData& b) {
  EXPECT_EQ(a.config_hash, b.config_hash);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.root_fp.lo, b.root_fp.lo);
  EXPECT_EQ(a.root_fp.hi, b.root_fp.hi);
  for (const TallyField& f : kTallyFields) {
    EXPECT_EQ(a.stats.*f.field, b.stats.*f.field) << (f.metric != nullptr ? f.metric : "");
  }
  EXPECT_EQ(a.stats.max_probe, b.stats.max_probe);
  EXPECT_EQ(a.stats.checkpoints_written, b.stats.checkpoints_written);
  EXPECT_EQ(a.has_violation, b.has_violation);
  EXPECT_EQ(a.violation_description, b.violation_description);
  EXPECT_EQ(a.violation_property, b.violation_property);
  EXPECT_EQ(a.violation_param, b.violation_param);
  ASSERT_EQ(a.violation_schedule.size(), b.violation_schedule.size());
  for (std::size_t i = 0; i < a.violation_schedule.size(); ++i) {
    EXPECT_EQ(a.violation_schedule[i].kind, b.violation_schedule[i].kind);
    EXPECT_EQ(a.violation_schedule[i].process, b.violation_schedule[i].process);
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].fp.lo, b.nodes[i].fp.lo);
    EXPECT_EQ(a.nodes[i].fp.hi, b.nodes[i].fp.hi);
    EXPECT_EQ(a.nodes[i].values, b.nodes[i].values);
  }
  EXPECT_EQ(a.frontier, b.frontier);
}

TEST(CheckpointTest, SerializeLoadRoundTrip) {
  const CheckpointData data = sample_data();
  const std::string path = temp_path("roundtrip.ckpt");
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, data, nullptr, error)) << error;

  CheckpointData loaded;
  ASSERT_EQ(load_checkpoint(path, loaded, error), CheckpointLoad::kOk) << error;
  expect_equal(data, loaded);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileReportsMissingNotCorrupt) {
  CheckpointData loaded;
  std::string error;
  EXPECT_EQ(load_checkpoint(temp_path("nope.ckpt"), loaded, error),
            CheckpointLoad::kMissing);
}

TEST(CheckpointTest, VersionFourFilesAreRejectedAsUnsupported) {
  // Version 4 files carry one tally field more (the migration stripes of
  // an index that grew while workers inserted). Re-stamped with a valid
  // CRC, such a file fails on its version alone.
  const std::string bytes = serialize_checkpoint(sample_data());
  const std::string path = temp_path("v4.ckpt");
  write_file(path, test::with_checkpoint_version(bytes, CheckpointData::kVersion));
  CheckpointData loaded;
  std::string error;
  ASSERT_EQ(load_checkpoint(path, loaded, error), CheckpointLoad::kOk) << error;

  write_file(path, test::with_checkpoint_version(bytes, 4));
  EXPECT_EQ(load_checkpoint(path, loaded, error), CheckpointLoad::kCorrupt);
  EXPECT_NE(error.find("unsupported version 4"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoaderRejectsEveryFlippedByte) {
  const std::string bytes = serialize_checkpoint(sample_data());
  const std::string path = temp_path("flip.ckpt");
  // Every byte participates in either the frame or the CRC: flipping any one
  // must fail the load. Stride keeps the test fast; offset 0 (magic) and the
  // last byte (CRC) are always covered.
  for (std::size_t i = 0; i < bytes.size(); i += i < 64 ? 1 : 13) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    write_file(path, mutated);
    CheckpointData loaded;
    std::string error;
    EXPECT_EQ(load_checkpoint(path, loaded, error), CheckpointLoad::kCorrupt)
        << "flipped byte " << i << " was accepted";
  }
  std::string last = bytes;
  last.back() = static_cast<char>(last.back() ^ 0x01);
  write_file(path, last);
  CheckpointData loaded;
  std::string error;
  EXPECT_EQ(load_checkpoint(path, loaded, error), CheckpointLoad::kCorrupt);
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoaderRejectsEveryTruncation) {
  const std::string bytes = serialize_checkpoint(sample_data());
  const std::string path = temp_path("trunc.ckpt");
  for (std::size_t keep = 0; keep < bytes.size(); keep += keep < 64 ? 1 : 17) {
    write_file(path, bytes.substr(0, keep));
    CheckpointData loaded;
    std::string error;
    EXPECT_EQ(load_checkpoint(path, loaded, error), CheckpointLoad::kCorrupt)
        << "prefix of " << keep << " bytes was accepted";
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, TornWriteFaultLeavesPreviousCheckpointIntact) {
  const std::string path = temp_path("atomic.ckpt");
  const CheckpointData first = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, first, nullptr, error)) << error;

  CheckpointData second = sample_data();
  second.stats.visited = 99999;
  FaultPlan fault(FaultPlan::Site::kCkptWrite, FaultPlan::Action::kTruncateWrite, 1);
  EXPECT_FALSE(write_checkpoint(path, second, &fault, error));
  EXPECT_TRUE(fault.fired());
  EXPECT_NE(error.find("fault"), std::string::npos) << error;

  // The torn write hit the temp file only: the durable checkpoint still loads
  // and still holds the first snapshot.
  CheckpointData loaded;
  ASSERT_EQ(load_checkpoint(path, loaded, error), CheckpointLoad::kOk) << error;
  EXPECT_EQ(loaded.stats.visited, first.stats.visited);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ConfigHashCoversGraphShapingKnobsOnly) {
  sim::ExplorerConfig base;
  const std::uint64_t h = checkpoint_config_hash(base);

  sim::ExplorerConfig budget = base;
  budget.crash_budget += 1;
  EXPECT_NE(checkpoint_config_hash(budget), h);

  sim::ExplorerConfig symmetry = base;
  symmetry.symmetry_classes = {0, 0, 1};
  EXPECT_NE(checkpoint_config_hash(symmetry), h);

  // Resource limits are deliberately identity-neutral: resuming a run with a
  // bigger time budget is the whole point of checkpoints.
  sim::ExplorerConfig limits = base;
  limits.time_limit_ms = 1234;
  limits.mem_limit_mb = 77;
  limits.checkpoint_every = 5000;
  EXPECT_EQ(checkpoint_config_hash(limits), h);
}

check::CheckRequest spec_request(const std::string& line) {
  check::ScenarioSpec spec;
  std::vector<std::string> errors;
  check::parse_scenario_line(line, spec, errors);
  EXPECT_TRUE(errors.empty());
  check::CheckRequest request;
  request.system = check::build_spec_system(spec);
  request.budget.crash_model = spec.crash_model;
  request.budget.crash_budget = spec.crash_budget;
  request.strategy = check::Strategy::kParallelBFS;
  request.num_threads = 4;
  return request;
}

TEST(CheckpointTest, InterruptedRunResumesToIdenticalVisitedAndVerdict) {
  const std::string line = "type=Sn(3) n=3 model=independent budget=2";
  const std::string path = temp_path("resume.ckpt");

  // Ground truth: the uninterrupted run.
  const check::CheckReport full = check::check(spec_request(line));
  ASSERT_TRUE(full.clean);
  ASSERT_GT(full.stats.visited, 1000u);

  // Interrupted run: a forced stop early on, with a final checkpoint written
  // at exit (the in-process analog of dying after the last periodic write).
  FaultPlan stop(FaultPlan::Site::kBatch, FaultPlan::Action::kStop, 3);
  check::CheckRequest interrupted = spec_request(line);
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_label = line;
  interrupted.fault = &stop;
  const check::CheckReport partial = check::check(std::move(interrupted));
  EXPECT_TRUE(partial.stats.truncated());
  EXPECT_EQ(partial.stats.stop_reason, sim::StopReason::kForcedStop);
  EXPECT_LT(partial.stats.visited, full.stats.visited);

  // Resume from the cut: identical visited count, identical verdict.
  CheckpointData snapshot;
  std::string error;
  ASSERT_EQ(load_checkpoint(path, snapshot, error), CheckpointLoad::kOk) << error;
  EXPECT_EQ(snapshot.stats.visited, partial.stats.visited);
  check::CheckRequest resumed = spec_request(line);
  resumed.checkpoint_path = path;
  resumed.checkpoint_label = line;
  resumed.resume = &snapshot;
  const check::CheckReport report = check::check(std::move(resumed));
  EXPECT_TRUE(report.clean);
  EXPECT_FALSE(report.stats.truncated());
  EXPECT_EQ(report.stats.visited, full.stats.visited);
  // The re-interned checkpoint records count as the store's.
  EXPECT_EQ(report.stats.store_nodes, report.stats.visited + 1);
  EXPECT_EQ(report.stats.store_bytes, full.stats.store_bytes);
  std::remove(path.c_str());
}

TEST(CheckpointTest, PeriodicCheckpointsLeaveTheRunUnchanged) {
  // Each periodic checkpoint stops the workers between frontier items, joins
  // them, gathers the cut and restarts them. No item is expanded twice, so
  // the run reports exactly what it does without checkpoints, and the
  // registry still equals the stats.
  const std::string line = "type=Sn(4) n=4 model=independent budget=1";
  const std::string path = temp_path("periodic.ckpt");
  std::remove(path.c_str());
  obs::MetricsRegistry registry;
  check::CheckRequest request = spec_request(line);
  request.checkpoint_path = path;
  request.checkpoint_label = line;
  request.checkpoint_every = 500;
  request.sentinel_interval_ms = 1;
  request.obs.metrics = &registry;
  const check::CheckReport report = check::check(std::move(request));
  EXPECT_TRUE(report.clean);
  EXPECT_FALSE(report.stats.truncated());
  EXPECT_EQ(report.stats.visited, 38837u);
  EXPECT_EQ(report.stats.transitions, 170974u);
  EXPECT_EQ(report.stats.duplicates, 132137u);
  EXPECT_GE(report.stats.checkpoints_written, 2u);
  test::expect_registry_matches_stats(report.metrics, report.stats);

  // The file left at exit is the final cut: it resumes clean to the same
  // count.
  CheckpointData snapshot;
  std::string error;
  ASSERT_EQ(load_checkpoint(path, snapshot, error), CheckpointLoad::kOk) << error;
  check::CheckRequest resumed = spec_request(line);
  resumed.checkpoint_label = line;
  resumed.resume = &snapshot;
  const check::CheckReport again = check::check(std::move(resumed));
  EXPECT_TRUE(again.clean);
  EXPECT_FALSE(again.stats.truncated());
  EXPECT_EQ(again.stats.visited, 38837u);
  std::remove(path.c_str());
}

// Stops a single-worker run at its `stop_at`-th frontier batch (the forced
// stop hands the in-hand batch back, so the cut falls between expansions),
// resumes it from the final checkpoint, and returns the resumed report.
check::CheckReport stop_and_resume(const std::string& line, std::uint64_t stop_at,
                                   const std::string& path) {
  FaultPlan stop(FaultPlan::Site::kBatch, FaultPlan::Action::kStop, stop_at);
  check::CheckRequest interrupted = spec_request(line);
  interrupted.num_threads = 1;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_label = line;
  interrupted.fault = &stop;
  const check::CheckReport partial = check::check(std::move(interrupted));
  EXPECT_EQ(partial.stats.stop_reason, sim::StopReason::kForcedStop);
  EXPECT_GT(partial.stats.duplicates, 0u);  // the cut has duplicates to carry

  CheckpointData snapshot;
  std::string error;
  EXPECT_EQ(load_checkpoint(path, snapshot, error), CheckpointLoad::kOk) << error;
  check::CheckRequest resumed = spec_request(line);
  resumed.num_threads = 1;
  resumed.checkpoint_path = path;
  resumed.checkpoint_label = line;
  resumed.resume = &snapshot;
  check::CheckReport report = check::check(std::move(resumed));
  std::remove(path.c_str());
  return report;
}

TEST(CheckpointTest, ResumedReportKeepsTheTransitionsIdentity) {
  // Every counter a checkpoint carries must add up across the cut: a resumed
  // run reports what an uninterrupted one does, so the transitions identity
  // (transitions == visited + duplicates + violation_edges + orbit_skipped)
  // holds on the resumed report too.
  for (const bool symmetry : {false, true}) {
    const std::string line = std::string("type=Sn(4) n=4 model=independent budget=1") +
                             (symmetry ? " symmetry=on" : "");
    SCOPED_TRACE(line);
    check::CheckRequest fresh_request = spec_request(line);
    fresh_request.num_threads = 1;
    const check::CheckReport fresh = check::check(std::move(fresh_request));
    ASSERT_TRUE(fresh.clean);
    EXPECT_EQ(fresh.stats.transitions, fresh.stats.classified());

    const check::CheckReport report = stop_and_resume(line, 10, temp_path("identity.ckpt"));
    EXPECT_TRUE(report.clean);
    EXPECT_FALSE(report.stats.truncated());
    EXPECT_EQ(report.stats.transitions, report.stats.classified());
    EXPECT_EQ(report.stats.visited, fresh.stats.visited);
    EXPECT_EQ(report.stats.duplicates, fresh.stats.duplicates);
    EXPECT_EQ(report.stats.violation_edges, fresh.stats.violation_edges);
    EXPECT_EQ(report.stats.transitions - report.stats.orbit_skipped,
              fresh.stats.transitions - fresh.stats.orbit_skipped);
    if (!symmetry) {
      EXPECT_EQ(report.stats.transitions, fresh.stats.transitions);
      EXPECT_EQ(report.stats.orbit_skipped, 0u);
    }
    // With symmetry, orbit_skipped (and the transitions that include it)
    // depends on expansion order: the step-count sidecar of whichever path
    // reaches a state first decides its orbits (ExplorerStats,
    // engine/obs_cells.hpp). A resumed worker restarts its pop-batch sizing,
    // so its order after the cut differs from the uninterrupted run's.
  }
}

TEST(CheckpointTest, ResumeSizesItsIndexForTheCheckpointedRecords) {
  // A resume re-interns every checkpointed record before its workers start,
  // so its index starts large enough for them: it grows fewer times than a
  // run from the root, and ends at the same count.
  const std::string line = "type=Sn(4) n=4 model=independent budget=1";
  const std::string path = temp_path("presized.ckpt");
  check::CheckRequest fresh_request = spec_request(line);
  fresh_request.num_threads = 1;
  const check::CheckReport fresh = check::check(std::move(fresh_request));
  ASSERT_TRUE(fresh.clean);

  FaultPlan stop(FaultPlan::Site::kBatch, FaultPlan::Action::kStop, 200);
  check::CheckRequest interrupted = spec_request(line);
  interrupted.num_threads = 1;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_label = line;
  interrupted.fault = &stop;
  const check::CheckReport partial = check::check(std::move(interrupted));
  ASSERT_EQ(partial.stats.stop_reason, sim::StopReason::kForcedStop);

  CheckpointData snapshot;
  std::string error;
  ASSERT_EQ(load_checkpoint(path, snapshot, error), CheckpointLoad::kOk) << error;
  // More records than the index of a run from the root holds before it grows.
  ASSERT_GT(snapshot.nodes.size(), 10'000u);
  check::CheckRequest resumed = spec_request(line);
  resumed.num_threads = 1;
  resumed.checkpoint_label = line;
  resumed.resume = &snapshot;
  const check::CheckReport report = check::check(std::move(resumed));
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.stats.visited, fresh.stats.visited);
  EXPECT_LT(report.stats.rehashes, fresh.stats.rehashes);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ViolationFoundBeforeTheCutSurvivesResume) {
  // naive-register violates with zero crashes; force a stop late enough that
  // the violation is (very likely) already recorded, checkpoint, resume, and
  // the resumed run must still report the violation with its full schedule.
  const std::string line = "type=register n=2 model=independent budget=0 "
                           "algo=naive-register";
  const std::string path = temp_path("viol.ckpt");

  check::CheckRequest direct = spec_request(line);
  const check::CheckReport truth = check::check(std::move(direct));
  ASSERT_FALSE(truth.clean);

  check::CheckRequest first = spec_request(line);
  first.checkpoint_path = path;
  first.checkpoint_label = line;
  const check::CheckReport with_ckpt = check::check(std::move(first));
  ASSERT_FALSE(with_ckpt.clean);

  CheckpointData snapshot;
  std::string error;
  ASSERT_EQ(load_checkpoint(path, snapshot, error), CheckpointLoad::kOk) << error;
  ASSERT_TRUE(snapshot.has_violation);

  check::CheckRequest resumed = spec_request(line);
  resumed.checkpoint_path = path;
  resumed.checkpoint_label = line;
  resumed.resume = &snapshot;
  const check::CheckReport report = check::check(std::move(resumed));
  EXPECT_FALSE(report.clean);
  ASSERT_TRUE(report.violation.has_value());
  EXPECT_EQ(report.violation->property, truth.violation->property);
  EXPECT_FALSE(report.violation->schedule.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rcons::engine
