#include "engine/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iterator>

#include "engine/fault_inject.hpp"
#include "util/assert.hpp"

namespace rcons::engine {

namespace {

constexpr char kMagic[4] = {'R', 'C', 'K', 'P'};

// CRC-32 (IEEE 802.3, reflected), table computed on first use. The frame
// check only needs to catch torn writes and bit flips, not adversaries.
std::uint32_t crc32(const unsigned char* data, std::size_t size) {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) != 0 ? 0xedb88320U ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffU;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xffU] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffU;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// Bounds-checked little-endian reader over the loaded byte buffer. Every
// read can fail (truncated frame); the loader surfaces the first failure.
struct Reader {
  const unsigned char* data;
  std::size_t size;
  std::size_t at = 0;
  bool ok = true;

  bool take(void* out, std::size_t n) {
    if (!ok || size - at < n) {
      ok = false;
      return false;
    }
    std::memcpy(out, data + at, n);
    at += n;
    return true;
  }

  std::uint32_t u32() {
    unsigned char b[4] = {};
    if (!take(b, 4)) return 0;
    return static_cast<std::uint32_t>(b[0]) | static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 |
           static_cast<std::uint32_t>(b[3]) << 24;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    unsigned char b[8] = {};
    if (!take(b, 8)) return 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || size - at < n) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data + at), n);
    at += n;
    return s;
  }
};

}  // namespace

std::uint64_t checkpoint_config_hash(const sim::ExplorerConfig& config) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi, arbitrary non-zero seed
  const auto fold = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = util::mix64(h);
  };
  fold(static_cast<std::uint64_t>(config.crash_model));
  fold(static_cast<std::uint64_t>(config.crash_budget));
  fold(static_cast<std::uint64_t>(config.max_steps_per_run));
  fold(static_cast<std::uint64_t>(config.max_visited));
  fold(config.symmetry_classes.size());
  for (const int cls : config.symmetry_classes) {
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(cls)));
  }
  fold(config.properties.specs().size());
  for (const sim::PropertySpec& spec : config.properties.specs()) {
    fold(static_cast<std::uint64_t>(spec.kind));
    fold(static_cast<std::uint64_t>(spec.param));
  }
  fold(config.properties.valid_outputs.size());
  for (const typesys::Value v : config.properties.valid_outputs) {
    fold(static_cast<std::uint64_t>(v));
  }
  return h;
}

std::string serialize_checkpoint(const CheckpointData& data) {
  // Producer-side frame invariants: catch an inconsistent cut before it is
  // made durable (the loader re-validates the same bounds on read, but by
  // then the bad frame has already replaced a good one on disk).
  for (const std::uint64_t index : data.frontier) {
    RCONS_DCHECK_MSG(index < data.nodes.size(),
                     "checkpoint frame references a node it does not carry");
  }
  RCONS_DCHECK_MSG(data.has_violation || data.violation_schedule.empty(),
                   "violation schedule present without the violation flag");
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, CheckpointData::kVersion);
  put_u64(out, data.config_hash);
  put_string(out, data.label);
  put_u64(out, data.root_fp.lo);
  put_u64(out, data.root_fp.hi);
  put_u32(out, static_cast<std::uint32_t>(std::size(kTallyFields)));
  for (const TallyField& f : kTallyFields) put_u64(out, data.stats.*f.field);
  put_u64(out, data.stats.max_probe);
  put_u64(out, data.stats.checkpoints_written);

  out.push_back(data.has_violation ? 1 : 0);
  if (data.has_violation) {
    put_string(out, data.violation_description);
    put_u32(out, static_cast<std::uint32_t>(data.violation_property));
    put_i64(out, data.violation_param);
    put_u32(out, static_cast<std::uint32_t>(data.violation_schedule.size()));
    for (const sim::ScheduleEvent& event : data.violation_schedule) {
      out.push_back(static_cast<char>(event.kind));
      put_u32(out, static_cast<std::uint32_t>(event.process));
    }
  }

  put_u64(out, data.nodes.size());
  for (const CheckpointData::Node& node : data.nodes) {
    put_u64(out, node.fp.lo);
    put_u64(out, node.fp.hi);
    put_u32(out, static_cast<std::uint32_t>(node.values.size()));
    for (const std::int64_t v : node.values) put_i64(out, v);
  }
  put_u64(out, data.frontier.size());
  for (const std::uint64_t index : data.frontier) put_u64(out, index);

  put_u32(out, crc32(reinterpret_cast<const unsigned char*>(out.data()), out.size()));
  return out;
}

bool write_checkpoint(const std::string& path, const CheckpointData& data,
                      FaultPlan* fault, std::string& error) {
  const std::string bytes = serialize_checkpoint(data);
  std::size_t write_size = bytes.size();
  bool truncate = false;
  if (fault != nullptr &&
      fault->hit(FaultPlan::Site::kCkptWrite) == FaultPlan::Action::kTruncateWrite) {
    // Simulated torn write: half the frame lands in the temp file and the
    // rename never happens, so any previous checkpoint at `path` survives.
    write_size /= 2;
    truncate = true;
  }

  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    error = "checkpoint: cannot open '" + tmp + "' for writing";
    return false;
  }
  // The data must reach the disk before the rename publishes it, or an OS
  // crash or power loss could leave an empty or torn file at `path` after
  // the previous checkpoint was already replaced.
  const std::size_t written = std::fwrite(bytes.data(), 1, write_size, file);
  const bool synced = std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  if (written != write_size || !synced || !closed) {
    error = "checkpoint: write to '" + tmp + "' failed";
    return false;
  }
  if (truncate) {
    error = "checkpoint: write truncated by fault injection (rename skipped)";
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = "checkpoint: cannot rename '" + tmp + "' to '" + path + "'";
    return false;
  }
  // The rename itself is durable once the directory entry is.
  const std::size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : slash == 0 ? "/" : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool dir_synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  if (!dir_synced) {
    error = "checkpoint: cannot sync directory '" + dir + "'";
    return false;
  }
  return true;
}

CheckpointLoad load_checkpoint(const std::string& path, CheckpointData& data,
                               std::string& error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    error = "checkpoint: no file at '" + path + "'";
    return CheckpointLoad::kMissing;
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) bytes.append(buf, got);
  std::fclose(file);

  const auto corrupt = [&](const std::string& why) {
    error = "checkpoint '" + path + "': " + why;
    return CheckpointLoad::kCorrupt;
  };
  if (bytes.size() < sizeof(kMagic) + 4 + 4) return corrupt("file too short");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return corrupt("bad magic (not a checkpoint file)");
  }
  const std::size_t body = bytes.size() - 4;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body, 4);
  // The trailer was serialized little-endian; reassemble portably.
  const auto* tail = reinterpret_cast<const unsigned char*>(bytes.data() + body);
  stored_crc = static_cast<std::uint32_t>(tail[0]) |
               static_cast<std::uint32_t>(tail[1]) << 8 |
               static_cast<std::uint32_t>(tail[2]) << 16 |
               static_cast<std::uint32_t>(tail[3]) << 24;
  const std::uint32_t actual_crc =
      crc32(reinterpret_cast<const unsigned char*>(bytes.data()), body);
  if (stored_crc != actual_crc) {
    return corrupt("CRC mismatch (torn write or flipped bytes)");
  }

  Reader r{reinterpret_cast<const unsigned char*>(bytes.data()), body};
  r.at = sizeof(kMagic);
  const std::uint32_t version = r.u32();
  if (version != CheckpointData::kVersion) {
    return corrupt("unsupported version " + std::to_string(version));
  }

  CheckpointData loaded;
  loaded.config_hash = r.u64();
  loaded.label = r.str();
  loaded.root_fp.lo = r.u64();
  loaded.root_fp.hi = r.u64();
  if (r.u32() != std::size(kTallyFields)) return corrupt("bad tally field count");
  for (const TallyField& f : kTallyFields) loaded.stats.*f.field = r.u64();
  loaded.stats.max_probe = r.u64();
  loaded.stats.checkpoints_written = r.u64();

  unsigned char has_violation = 0;
  r.take(&has_violation, 1);
  if (has_violation > 1) return corrupt("bad violation flag");
  loaded.has_violation = has_violation != 0;
  if (loaded.has_violation) {
    loaded.violation_description = r.str();
    const std::uint32_t property = r.u32();
    if (property > static_cast<std::uint32_t>(sim::PropertyKind::kAtMostOnceDecide)) {
      return corrupt("bad violation property");
    }
    loaded.violation_property = static_cast<sim::PropertyKind>(property);
    loaded.violation_param = r.i64();
    const std::uint32_t nevents = r.u32();
    if (!r.ok || nevents > body) return corrupt("bad violation schedule length");
    loaded.violation_schedule.reserve(nevents);
    for (std::uint32_t i = 0; i < nevents; ++i) {
      unsigned char kind = 0;
      r.take(&kind, 1);
      if (kind > static_cast<unsigned char>(sim::ScheduleEvent::Kind::kCrashAll)) {
        return corrupt("bad schedule event kind");
      }
      sim::ScheduleEvent event;
      event.kind = static_cast<sim::ScheduleEvent::Kind>(kind);
      event.process = static_cast<int>(static_cast<std::int32_t>(r.u32()));
      loaded.violation_schedule.push_back(event);
    }
  }

  const std::uint64_t node_count = r.u64();
  if (!r.ok || node_count > body) return corrupt("bad node count");
  loaded.nodes.reserve(static_cast<std::size_t>(node_count));
  for (std::uint64_t i = 0; i < node_count; ++i) {
    CheckpointData::Node node;
    node.fp.lo = r.u64();
    node.fp.hi = r.u64();
    const std::uint32_t len = r.u32();
    if (!r.ok || static_cast<std::size_t>(len) * 8 > body - r.at) {
      return corrupt("bad node record length");
    }
    node.values.reserve(len);
    for (std::uint32_t v = 0; v < len; ++v) node.values.push_back(r.i64());
    loaded.nodes.push_back(std::move(node));
  }

  const std::uint64_t frontier_count = r.u64();
  if (!r.ok || frontier_count > body) return corrupt("bad frontier count");
  loaded.frontier.reserve(static_cast<std::size_t>(frontier_count));
  for (std::uint64_t i = 0; i < frontier_count; ++i) {
    const std::uint64_t index = r.u64();
    if (index >= node_count) return corrupt("frontier index out of range");
    loaded.frontier.push_back(index);
  }
  if (!r.ok) return corrupt("truncated frame");
  if (r.at != body) return corrupt("trailing bytes after frame");

  data = std::move(loaded);
  return CheckpointLoad::kOk;
}

}  // namespace rcons::engine
