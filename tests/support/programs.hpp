// Small step-machine programs shared by the explorer, facade and obs tests.
#ifndef RCONS_TESTS_SUPPORT_PROGRAMS_HPP
#define RCONS_TESTS_SUPPORT_PROGRAMS_HPP

#include <cstddef>
#include <vector>

#include "sim/memory.hpp"
#include "sim/process.hpp"

namespace rcons::test {

// Deliberately broken "consensus": each process writes its input to a shared
// register and decides what it reads afterwards — classic register
// non-solvability, so every exhaustive backend must find an agreement
// violation even without crashes.
struct BrokenConsensus {
  sim::RegId reg = 0;
  typesys::Value input = 0;
  int pc = 0;

  sim::StepResult step(sim::Memory& memory) {
    if (pc == 0) {
      memory.write(reg, input);
      pc = 1;
      return sim::StepResult::running();
    }
    return sim::StepResult::decided(memory.read(reg));
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(pc); }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    pc = static_cast<int>(data[0]);
    return 1;
  }
};

// Decides `value` on its first step without touching memory — exercises
// validity checking when `value` is outside the valid set.
struct ConstantDecider {
  typesys::Value value = 0;

  sim::StepResult step(sim::Memory&) { return sim::StepResult::decided(value); }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(0); }
  std::size_t decode(const typesys::Value*, std::size_t) { return 1; }
};

// Never decides: writes a register and counts its steps, so it trips any
// per-run step bound. Its local state advances every step, as the explorers'
// deduplication assumes of every program.
struct Looper {
  sim::RegId reg = 0;
  long count = 0;

  sim::StepResult step(sim::Memory& memory) {
    memory.write(reg, 1);
    count += 1;
    return sim::StepResult::running();
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(count); }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    count = static_cast<long>(data[0]);
    return 1;
  }
};

// Never decides: writes a register and toggles a phase bit, so its block
// returns to an earlier value while its per-run step count keeps growing —
// two such processes can have equal blocks and different step counts.
struct Spinner {
  sim::RegId reg = 0;
  int phase = 0;

  sim::StepResult step(sim::Memory& memory) {
    memory.write(reg, 1);
    phase = (phase + 1) % 2;
    return sim::StepResult::running();
  }
  void encode(std::vector<typesys::Value>& out) const { out.push_back(phase); }
  std::size_t decode(const typesys::Value* data, std::size_t) {
    phase = static_cast<int>(data[0]);
    return 1;
  }
};

}  // namespace rcons::test

#endif  // RCONS_TESTS_SUPPORT_PROGRAMS_HPP
