// Value-semantic step-machine processes.
//
// Every algorithm in this repository is written once, as a copyable struct
// whose step() performs *exactly one* shared-memory access (local computation
// is folded into the adjacent access, matching the usual atomic-step model).
// A Process type-erases such a program while keeping value semantics, and
// remembers the pristine initial program so that a crash — which in the
// paper's model wipes local memory including the program counter — is
// modelled by reset() back to the initial invocation.
//
// Program concept (`Program` below):
//   struct P {
//     StepResult step(Memory& memory);            // one access per call
//     void encode(std::vector<Value>& out) const; // canonical local state
//     std::size_t decode(const Value* data, std::size_t size);
//   };
//
// decode() is the inverse of encode(): it restores the current run's volatile
// local state from the values encode() produced and returns how many values
// it consumed (encodings are self-delimiting, so composed programs can chain
// decodes). The explorers store each state once as an interned value record
// and rebuild process state from it in place instead of cloning type-erased
// programs on every expansion (engine/node_store.hpp), so all three members
// are required.
#ifndef RCONS_SIM_PROCESS_HPP
#define RCONS_SIM_PROCESS_HPP

#include <concepts>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "sim/memory.hpp"

namespace rcons::sim {

struct StepResult {
  enum class Kind { kRunning, kDecided };
  Kind kind = Kind::kRunning;
  typesys::Value decision = 0;  // meaningful when kind == kDecided

  static StepResult running() { return {Kind::kRunning, 0}; }
  static StepResult decided(typesys::Value value) { return {Kind::kDecided, value}; }
};

template <typename P>
concept Program = requires(P& program, const P& const_program, Memory& memory,
                           std::vector<typesys::Value>& out,
                           const typesys::Value* data, std::size_t size) {
  { program.step(memory) } -> std::convertible_to<StepResult>;
  const_program.encode(out);
  { program.decode(data, size) } -> std::same_as<std::size_t>;
};

class Process {
 public:
  template <Program P>
  explicit Process(P program)
      : initial_(std::make_unique<Model<P>>(program)),
        current_(std::make_unique<Model<P>>(std::move(program))) {}

  Process(const Process& other)
      : initial_(other.initial_->clone()), current_(other.current_->clone()) {}
  Process& operator=(const Process& other) {
    if (this != &other) {
      initial_ = other.initial_->clone();
      current_ = other.current_->clone();
    }
    return *this;
  }
  Process(Process&&) noexcept = default;
  Process& operator=(Process&&) noexcept = default;

  // Performs the next shared-memory access of the current run.
  StepResult step(Memory& memory) { return current_->step(memory); }

  // Crash: discard all local state; the next step() begins a fresh run of the
  // algorithm from the top (shared memory is untouched). Copy-assigns the
  // pristine program into the existing model — crashes and decided-run resets
  // sit on the explorers' hot path, and `initial_`/`current_` are always the
  // same Model<P> (constructed together, cloned pairwise), so no allocation.
  void reset() { current_->assign_from(*initial_); }

  // Canonical encoding of the current run's local state.
  void encode(std::vector<typesys::Value>& out) const { current_->encode(out); }

  // Restores the current run's local state from an encode() image, returning
  // the number of values consumed.
  std::size_t decode(const typesys::Value* data, std::size_t size) {
    return current_->decode(data, size);
  }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual std::unique_ptr<Concept> clone() const = 0;
    virtual void assign_from(const Concept& other) = 0;
    virtual StepResult step(Memory& memory) = 0;
    virtual void encode(std::vector<typesys::Value>& out) const = 0;
    virtual std::size_t decode(const typesys::Value* data, std::size_t size) = 0;
  };

  template <typename P>
  struct Model final : Concept {
    explicit Model(P p) : program(std::move(p)) {}
    std::unique_ptr<Concept> clone() const override {
      return std::make_unique<Model<P>>(program);
    }
    void assign_from(const Concept& other) override {
      program = static_cast<const Model<P>&>(other).program;
    }
    StepResult step(Memory& memory) override { return program.step(memory); }
    void encode(std::vector<typesys::Value>& out) const override {
      program.encode(out);
    }
    std::size_t decode(const typesys::Value* data, std::size_t size) override {
      return program.decode(data, size);
    }
    P program;
  };

  std::unique_ptr<Concept> initial_;
  std::unique_ptr<Concept> current_;
};

}  // namespace rcons::sim

#endif  // RCONS_SIM_PROCESS_HPP
