// Durable checkpoints for the parallel exhaustive engine.
//
// A checkpoint is a consistent cut of a run taken after every worker joined
// (a periodic one then restarts them): the interned node records
// (which double as the visited set), the frontier as node indices, the
// visited counter, the partial statistics, and the best violation found so
// far. Resuming re-interns the records, re-seeds the frontier, and
// continues; because complete-run visited counts are scheduling-independent
// (they count the deduplicated graph), a resumed run finishes with
// byte-identical visited counts and the same verdict as an uninterrupted one
// (tests/engine/checkpoint_test.cpp, CI kill-and-resume).
//
// What a checkpoint deliberately does NOT carry: the path backlinks of
// frontier items. Traces of violations found *after* a resume are therefore
// suffixes rooted at the checkpoint cut, not full root-to-violation
// schedules (the verdict and its typed identity are unaffected; a violation
// found *before* the checkpoint is carried whole).
//
// File format (version 5, all integers little-endian):
//
//   "RCKP"  magic
//   u32     version
//   u64     config_hash      engine::checkpoint_config_hash of the run config
//   u32+b   label            caller-chosen identity line (the scenario spec)
//   u64 x2  root fingerprint
//   u32     tally fields     F = the number of kTallyFields entries
//   u64 xF  partial stats    every kTallyFields field, in table order (visited
//                            first: visited_count_ at the cut)
//   u64 x2  max_probe, checkpoints_written
//   u8      has_violation    (+ description, property, param, schedule)
//   u64     node count       then per node: fp.lo, fp.hi, u32 len, i64[len]
//   u64     frontier count   then per item: u64 node index
//   u32     CRC-32 of everything above
//
// Durability protocol: serialize to memory, write `path + ".tmp"`, fsync it,
// rename over `path`, fsync the directory. A process death, OS crash or
// power loss at any point leaves either the previous checkpoint or the new
// one at `path`, whole; a torn or tampered file fails the CRC (or a bounds
// check) and the loader reports kCorrupt with a precise error — it never
// half-loads.
#ifndef RCONS_ENGINE_CHECKPOINT_HPP
#define RCONS_ENGINE_CHECKPOINT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "engine/obs_cells.hpp"
#include "sim/explorer_config.hpp"
#include "sim/schedule.hpp"
#include "util/hash.hpp"

namespace rcons::engine {

class FaultPlan;

struct CheckpointData {
  // Version 5 drops the migration-stripe counter from the tally fields;
  // version 4 introduced the two-level node fingerprints (engine/expand.hpp).
  static constexpr std::uint32_t kVersion = 5;

  std::uint64_t config_hash = 0;
  std::string label;  // e.g. the formatted scenario line; validated by the CLI
  util::U128 root_fp{};

  // Stats at the cut, the resumed run's baseline: every Tally field (through
  // kTallyFields, so none can be left out) plus checkpoints_written. A
  // resume recounts store_nodes/store_bytes from the records in `nodes`.
  ExplorerStats stats;

  // Best violation found before the cut (empty when none): survives the
  // crash with its full root-rooted schedule.
  bool has_violation = false;
  std::string violation_description;
  sim::PropertyKind violation_property = sim::PropertyKind::kNone;
  std::int64_t violation_param = 0;
  std::vector<sim::ScheduleEvent> violation_schedule;

  struct Node {
    util::U128 fp{};
    std::vector<std::int64_t> values;  // full NodeCodec record
  };
  std::vector<Node> nodes;
  std::vector<std::uint64_t> frontier;  // indices into `nodes`
};

// Identity hash of everything that shapes the explored graph: the budget
// knobs that prune or bound it, the property set, and the symmetry
// declaration. Resource limits and checkpoint knobs are deliberately
// excluded — resuming with a different time budget is legal; resuming with a
// different crash model is not. The root fingerprint (stored separately)
// covers the initial memory and programs.
std::uint64_t checkpoint_config_hash(const sim::ExplorerConfig& config);

// Serializes `data` into the exact on-disk byte string (CRC included).
std::string serialize_checkpoint(const CheckpointData& data);

// Durable write: temp file + rename (see header comment). A FaultPlan armed
// at the ckpt-write site may truncate the temp write and skip the rename —
// simulating a torn write without touching any existing checkpoint. Returns
// false (with `error` filled) on I/O failure or a fault-injected truncation.
bool write_checkpoint(const std::string& path, const CheckpointData& data,
                      FaultPlan* fault, std::string& error);

enum class CheckpointLoad {
  kOk,
  kMissing,  // no file at `path`
  kCorrupt,  // unreadable, bad magic/version/CRC, or a framing violation
};

// Loads and fully validates `path` into `data` (untouched unless kOk).
// Any corruption — flipped bytes, truncation, bad counts — is detected and
// described in `error`.
CheckpointLoad load_checkpoint(const std::string& path, CheckpointData& data,
                               std::string& error);

}  // namespace rcons::engine

#endif  // RCONS_ENGINE_CHECKPOINT_HPP
