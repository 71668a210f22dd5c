#include "stages.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iterator>
#include <random>
#include <span>
#include <vector>

#include "engine/expand.hpp"
#include "engine/frontier.hpp"
#include "engine/node_store.hpp"

namespace rcons::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using engine::Event;
using engine::NodeCodec;
using typesys::Value;

struct Record {
  const Value* data = nullptr;
  std::uint32_t length = 0;
};

struct CallCounts {
  std::uint64_t decode = 0;  // full decodes, including restores of kDirtyAll
  std::uint64_t restore = 0;  // partial restores
  std::uint64_t enumerate = 0;
  std::uint64_t orbit_mask = 0;
  std::uint64_t apply = 0;
  std::uint64_t encode = 0;
  std::uint64_t intern_hit = 0;
  std::uint64_t intern_miss = 0;
  std::uint64_t frontier = 0;  // items pushed and later popped
};

sim::ExplorerConfig explorer_config(const check::ScenarioSystem& system,
                                    const check::Budget& budget) {
  sim::ExplorerConfig config;
  static_cast<check::Budget&>(config) = budget;
  config.properties = system.properties;
  config.symmetry_classes = system.symmetry_classes;
  return config;
}

// One pass over the whole state space in a driver's call pattern, counting
// stage calls and keeping every expanded record (the store owns them).
class Walk {
 public:
  Walk(const check::ScenarioSystem& system, const sim::ExplorerConfig& config)
      : config_(config),
        codec_(config.symmetry_classes),
        store_(0),
        node_(engine::make_root(system.memory, system.processes, config.properties)),
        orbits_(codec_.canonicalizing()) {}

  void run(Driver driver) {
    const NodeCodec::Encoded encoded = codec_.encode(node_, record_);
    counts_.encode += 1;
    const engine::NodeStore::Intern root = store_.intern(encoded.fingerprint, record_);
    const Record root_record{root.record, root.length};
    if (driver == Driver::kSequentialDfs) {
      expand_dfs(root_record, 0);
      return;
    }
    std::vector<Record> stack{root_record};
    std::vector<Event> events;
    while (!stack.empty()) {
      const Record parent = stack.back();
      stack.pop_back();
      expand(parent, events, [&](Record child) {
        stack.push_back(child);
        counts_.frontier += 1;
        return false;
      });
    }
  }

  const CallCounts& counts() const { return counts_; }
  const std::vector<Record>& parents() const { return parents_; }
  engine::NodeStore& store() { return store_; }

 private:
  void expand_dfs(Record parent, std::size_t depth) {
    while (events_pool_.size() <= depth) events_pool_.emplace_back();
    expand(parent, events_pool_[depth], [&](Record child) {
      expand_dfs(child, depth + 1);
      return true;  // recursion re-pointed the codec: re-decode the parent
    });
  }

  // The loop body shared by both drivers. `on_new` receives each newly
  // interned successor and returns whether the scratch node needs a full
  // re-decode before the next sibling.
  template <typename OnNew>
  void expand(Record parent, std::vector<Event>& events, OnNew&& on_new) {
    parents_.push_back(parent);
    codec_.decode(parent.data, parent.length, node_);
    counts_.decode += 1;
    int orbit_count = 0;
    if (orbits_) {
      orbit_count = codec_.orbit_skip_mask(parent.data, skip_);
      counts_.orbit_mask += 1;
    }
    std::uint64_t skipped = 0;
    engine::enumerate_events(node_, config_, events, orbit_count > 0 ? &skip_ : nullptr,
                             &skipped);
    counts_.enumerate += 1;
    int dirty = NodeCodec::kDirtyNone;
    for (const Event& event : events) {
      if (dirty != NodeCodec::kDirtyNone) {
        codec_.restore(parent.data, parent.length, node_, dirty);
        (dirty == NodeCodec::kDirtyAll ? counts_.decode : counts_.restore) += 1;
      }
      dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll : event.process;
      counts_.apply += 1;
      if (engine::apply_event(node_, event, config_)) continue;
      const NodeCodec::Encoded encoded =
          event.kind == Event::Kind::kCrashAll
              ? codec_.encode(node_, record_)
              : codec_.encode_successor(parent.data, parent.length, node_,
                                        event.process, record_);
      counts_.encode += 1;
      const engine::NodeStore::Intern interned =
          store_.intern(encoded.fingerprint, record_);
      if (!interned.inserted) {
        counts_.intern_hit += 1;
        continue;
      }
      counts_.intern_miss += 1;
      if (on_new(Record{interned.record, interned.length})) dirty = NodeCodec::kDirtyAll;
    }
  }

  const sim::ExplorerConfig& config_;
  NodeCodec codec_;
  engine::NodeStore store_;
  engine::Node node_;
  bool orbits_;
  std::vector<Value> record_;
  std::vector<std::uint8_t> skip_;
  std::deque<std::vector<Event>> events_pool_;  // per DFS depth, stable addresses
  std::vector<Record> parents_;
  CallCounts counts_;
};

// The sample's inputs for every timed loop, prepared once.
struct Sample {
  std::vector<Record> parents;
  std::vector<std::size_t> event_begin;  // parents.size() + 1 bounds into events
  std::vector<Event> events;
  // Successors that pass the property checks: the final (canonical) record
  // and fingerprint as the driver interns them, and the pre-canonical record
  // with its per-process block offsets as the canonicalizer receives it.
  std::vector<std::vector<Value>> records;
  std::vector<util::U128> fingerprints;
  std::vector<std::size_t> successor_begin;  // parents.size() + 1 bounds
  std::vector<std::vector<Value>> raw_records;
  std::vector<std::vector<std::size_t>> raw_offsets;
};

Sample prepare_sample(const check::ScenarioSystem& system,
                      const sim::ExplorerConfig& config, std::vector<Record> parents) {
  Sample sample;
  sample.parents = std::move(parents);
  NodeCodec codec(config.symmetry_classes);
  engine::Node node = engine::make_root(system.memory, system.processes, config.properties);
  std::vector<std::uint8_t> skip;
  std::vector<Event> events;
  std::vector<Value> record;
  const std::size_t n = system.processes.size();
  for (const Record parent : sample.parents) {
    sample.event_begin.push_back(sample.events.size());
    sample.successor_begin.push_back(sample.records.size());
    codec.decode(parent.data, parent.length, node);
    const int orbit_count =
        codec.canonicalizing() ? codec.orbit_skip_mask(parent.data, skip) : 0;
    std::uint64_t skipped = 0;
    engine::enumerate_events(node, config, events, orbit_count > 0 ? &skip : nullptr,
                             &skipped);
    sample.events.insert(sample.events.end(), events.begin(), events.end());
    int dirty = NodeCodec::kDirtyNone;
    for (const Event& event : events) {
      if (dirty != NodeCodec::kDirtyNone) {
        codec.restore(parent.data, parent.length, node, dirty);
      }
      dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll : event.process;
      if (engine::apply_event(node, event, config)) continue;
      std::vector<Value> raw;
      std::vector<std::size_t> offsets;
      engine::encode_node_header(node, raw);
      for (std::size_t i = 0; i < n; ++i) {
        offsets.push_back(raw.size());
        engine::encode_process_block(node, i, raw);
      }
      offsets.push_back(raw.size());
      for (std::size_t i = 0; i < n; ++i) raw.push_back(node.steps_in_run[i]);
      sample.raw_records.push_back(std::move(raw));
      sample.raw_offsets.push_back(std::move(offsets));

      const NodeCodec::Encoded encoded =
          event.kind == Event::Kind::kCrashAll
              ? codec.encode(node, record)
              : codec.encode_successor(parent.data, parent.length, node, event.process,
                                       record);
      sample.records.push_back(record);
      sample.fingerprints.push_back(encoded.fingerprint);
    }
  }
  sample.event_begin.push_back(sample.events.size());
  sample.successor_begin.push_back(sample.records.size());
  return sample;
}

template <typename F>
double time_ns(F&& body) {
  const Clock::time_point begin = Clock::now();
  body();
  return std::chrono::duration<double, std::nano>(Clock::now() - begin).count();
}

// Times the second of two back-to-back runs, so every loop that a stage's
// figure is derived from sees the sample in the same (warm) cache state.
template <typename F>
double time_warm_ns(F&& body) {
  body();
  return time_ns(body);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace

StageReport measure_stages(const check::ScenarioSystem& system,
                           const check::Budget& budget, Driver driver,
                           std::uint64_t seed, std::size_t sample_parents,
                           const std::function<void()>& before_repetition) {
  const sim::ExplorerConfig config = explorer_config(system, budget);
  Walk walk(system, config);
  walk.run(driver);
  const CallCounts& counts = walk.counts();
  const std::uint64_t visited = walk.store().size();

  // A seeded sample of the expanded states, kept in walk order.
  std::vector<Record> chosen;
  std::mt19937_64 rng(seed);
  std::sample(walk.parents().begin(), walk.parents().end(), std::back_inserter(chosen),
              sample_parents, rng);
  const Sample sample = prepare_sample(system, config, std::move(chosen));
  const std::size_t parents = sample.parents.size();

  // `codec` carries the symmetry declaration (orbit masks); `plain` encodes
  // without canonicalizing, which is timed as a stage of its own.
  NodeCodec codec(config.symmetry_classes);
  NodeCodec plain;
  const bool orbits = codec.canonicalizing();
  engine::Node node = engine::make_root(system.memory, system.processes, config.properties);
  engine::Canonicalizer canonicalizer(config.symmetry_classes);
  std::vector<std::uint8_t> skip;
  std::vector<Event> events;
  std::vector<Value> record;

  // Call counts of the loops below (identical on every repetition).
  std::uint64_t partial_restores = 0;
  std::uint64_t full_restores = 0;
  std::uint64_t applies = 0;
  for (std::size_t p = 0; p < parents; ++p) {
    for (std::size_t e = sample.event_begin[p]; e < sample.event_begin[p + 1]; ++e) {
      applies += 1;
      if (e == sample.event_begin[p]) continue;
      (sample.events[e - 1].kind == Event::Kind::kCrashAll ? full_restores
                                                          : partial_restores) += 1;
    }
  }
  const std::uint64_t encodes = sample.records.size();

  // Decode plus the restore sequence of every parent's successor loop; with
  // `apply` the events are applied too, and with `encode` the passing
  // successors are encoded as the driver does.
  const auto successor_loop = [&](bool apply, bool encode) {
    for (std::size_t p = 0; p < parents; ++p) {
      const Record parent = sample.parents[p];
      plain.decode(parent.data, parent.length, node);
      int dirty = NodeCodec::kDirtyNone;
      for (std::size_t e = sample.event_begin[p]; e < sample.event_begin[p + 1]; ++e) {
        const Event& event = sample.events[e];
        if (dirty != NodeCodec::kDirtyNone) {
          plain.restore(parent.data, parent.length, node, dirty);
        }
        dirty = event.kind == Event::Kind::kCrashAll ? NodeCodec::kDirtyAll : event.process;
        if (!apply) continue;
        if (engine::apply_event(node, event, config) || !encode) continue;
        if (event.kind == Event::Kind::kCrashAll) {
          plain.encode(node, record);
        } else {
          plain.encode_successor(parent.data, parent.length, node, event.process, record);
        }
      }
    }
  };

  std::vector<engine::CompactWorkItem> batch;
  std::vector<engine::CompactWorkItem> popped;
  std::vector<std::vector<Value>> unsorted;
  // enumerate_events() reads a decoded node and its orbit mask: both are
  // prepared per sampled parent so the stage is timed alone.
  std::vector<engine::Node> decoded;
  std::vector<std::vector<std::uint8_t>> masks;
  for (const Record parent : sample.parents) {
    codec.decode(parent.data, parent.length, node);
    decoded.push_back(node);
    masks.emplace_back();
    if (orbits) codec.orbit_skip_mask(parent.data, masks.back());
  }

  constexpr int kRepetitions = 21;
  std::map<std::string, std::vector<double>> loops;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    before_repetition();
    loops["decode"].push_back(time_warm_ns([&] {
      for (const Record parent : sample.parents) codec.decode(parent.data, parent.length, node);
    }));
    // Without a symmetry declaration no driver computes orbit masks, and the
    // stage reads zero.
    if (orbits) {
      loops["orbit"].push_back(time_warm_ns([&] {
        for (const Record parent : sample.parents) {
          codec.decode(parent.data, parent.length, node);
          codec.orbit_skip_mask(parent.data, skip);
        }
      }));
    }
    loops["enumerate"].push_back(time_warm_ns([&] {
      for (std::size_t p = 0; p < parents; ++p) {
        std::uint64_t skipped = 0;
        engine::enumerate_events(decoded[p], config, events,
                                 orbits ? &masks[p] : nullptr, &skipped);
      }
    }));
    loops["restore"].push_back(time_warm_ns([&] { successor_loop(false, false); }));
    loops["apply"].push_back(time_warm_ns([&] { successor_loop(true, false); }));
    loops["encode"].push_back(time_warm_ns([&] { successor_loop(true, true); }));
    // canonicalize() sorts in place, so each timed run gets fresh copies of
    // the pre-canonical records (made untimed), after one warm-up run.
    const auto canonicalize_all = [&] {
      const std::size_t n = system.processes.size();
      for (std::size_t i = 0; i < unsorted.size(); ++i) {
        if (canonicalizer.canonicalize(unsorted[i], sample.raw_offsets[i])) {
          // A permuted record is fingerprinted again, as NodeCodec does.
          engine::fingerprint_values(unsorted[i].data(), unsorted[i].size() - n);
        }
      }
    };
    unsorted = sample.raw_records;
    canonicalize_all();
    unsorted = sample.raw_records;
    loops["canonicalize"].push_back(time_ns(canonicalize_all));
    {
      // Misses into an empty index sized for the whole space; hits against
      // the walk's full store, so both see a table of the real size.
      engine::NodeStore fresh(0, visited);
      loops["intern_miss"].push_back(time_ns([&] {
        for (std::size_t i = 0; i < sample.records.size(); ++i) {
          fresh.intern(sample.fingerprints[i], sample.records[i]);
        }
      }));
    }
    loops["intern_hit"].push_back(time_warm_ns([&] {
      for (std::size_t i = 0; i < sample.records.size(); ++i) {
        walk.store().intern(sample.fingerprints[i], sample.records[i]);
      }
    }));
    loops["frontier"].push_back(time_warm_ns([&] {
      engine::CompactFrontier frontier(1);
      for (std::size_t p = 0; p < parents; ++p) {
        batch.clear();
        for (std::size_t s = sample.successor_begin[p]; s < sample.successor_begin[p + 1];
             ++s) {
          batch.push_back(engine::CompactWorkItem{
              sample.records[s].data(),
              static_cast<std::uint32_t>(sample.records[s].size()), nullptr});
        }
        frontier.push_batch(0, std::span<engine::CompactWorkItem>(batch));
        do {
          popped.clear();
        } while (frontier.pop_batch(0, popped, 128) != 0);
      }
    }));
  }

  const auto per = [](double ns, std::uint64_t calls) {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  };
  // The misses are the sample's distinct fingerprints.
  std::vector<util::U128> distinct = sample.fingerprints;
  std::sort(distinct.begin(), distinct.end(), [](const util::U128& a, const util::U128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  });
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());

  // A stage timed by difference subtracts loops of the same repetition, so
  // drift between repetitions cancels; its figure is the median over them.
  std::map<std::string, std::vector<double>> per_rep;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto at = [&](const char* name) { return loops[name][rep]; };
    const double decode_ns = per(at("decode"), parents);
    per_rep["decode"].push_back(decode_ns);
    per_rep["orbit_mask"].push_back(orbits ? per(at("orbit") - at("decode"), parents) : 0.0);
    per_rep["enumerate"].push_back(per(at("enumerate"), parents));
    per_rep["restore"].push_back(
        per(at("restore") - at("decode") - decode_ns * static_cast<double>(full_restores),
            partial_restores));
    per_rep["apply"].push_back(per(at("apply") - at("restore"), applies));
    per_rep["encode"].push_back(per(at("encode") - at("apply"), encodes));
    per_rep["canonicalize"].push_back(per(at("canonicalize"), sample.raw_records.size()));
    per_rep["intern_miss"].push_back(per(at("intern_miss"), distinct.size()));
    per_rep["intern_hit"].push_back(per(at("intern_hit"), sample.records.size()));
    per_rep["frontier"].push_back(per(at("frontier"), sample.records.size()));
  }

  StageReport report;
  report.walk_visited = visited;
  report.sampled_parents = parents;
  std::map<std::string, double>& ns = report.ns_per_call;
  for (const auto& [stage, values] : per_rep) ns[stage] = median(values);

  const auto per_state = [&](std::uint64_t calls) {
    return static_cast<double>(calls) / static_cast<double>(visited);
  };
  std::map<std::string, double>& calls = report.calls_per_state;
  calls["decode"] = per_state(counts.decode);
  calls["restore"] = per_state(counts.restore);
  calls["enumerate"] = per_state(counts.enumerate);
  calls["orbit_mask"] = per_state(counts.orbit_mask);
  calls["apply"] = per_state(counts.apply);
  calls["encode"] = per_state(counts.encode);
  calls["canonicalize"] = per_state(counts.encode);  // every encode calls it
  calls["intern_hit"] = per_state(counts.intern_hit);
  calls["intern_miss"] = per_state(counts.intern_miss);
  calls["frontier"] = per_state(counts.frontier);
  for (const auto& [stage, cost] : ns) report.stage_sum_ns += cost * calls[stage];
  return report;
}

}  // namespace rcons::perfbench
