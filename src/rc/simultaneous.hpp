// Recoverable consensus under SIMULTANEOUS crashes from ordinary consensus —
// the paper's Figure 4 algorithm (Appendix A), which proves Theorem 1: with
// simultaneous crashes, the RC hierarchy collapses onto the consensus
// hierarchy.
//
//   shared: Round[1..n] registers (0), D[1..∞] registers (⊥),
//           consensus instances C_1, C_2, …
//
//   Decide(v), process p_j:
//     pref ← v; r ← 1
//     loop
//       if Round[j] < r then
//         Round[j] ← r
//         if r > 1 and D[r-1] ≠ ⊥ then pref ← D[r-1]
//         pref ← C_r.Decide(pref)
//         D[r] ← pref
//         if ∀k, Round[k] ≤ r then return pref
//       else if r > 1 and D[r-1] ≠ ⊥ then pref ← D[r-1]
//       r ← r + 1
//
// The Round registers ensure no process calls C_r twice (Lemma 27), so any
// halting-model consensus works as C_r. Under *independent* crashes the
// algorithm is not safe when C_r is not itself recoverable — the tests
// exhibit a concrete agreement violation, motivating the paper's study of
// the independent-crash hierarchy.
#ifndef RCONS_RC_SIMULTANEOUS_HPP
#define RCONS_RC_SIMULTANEOUS_HPP

#include <memory>
#include <optional>
#include <vector>

#include "sim/memory.hpp"
#include "sim/process.hpp"
#include "util/assert.hpp"

namespace rcons::rc {

// Shared layout of one Figure-4 system. `rounds` holds pre-installed inner
// consensus instances C_1..C_max (the paper allows an unbounded supply; the
// simulator pre-allocates enough for the crash budget under test).
template <typename InnerInstance>
struct SimultaneousLayout {
  int n = 0;
  std::vector<InnerInstance> rounds;
  std::vector<sim::RegId> round_regs;  // Round[1..n], zero-initialized
  std::vector<sim::RegId> d_regs;      // D[1..max], ⊥-initialized

  int max_rounds() const { return static_cast<int>(rounds.size()); }
};

template <typename InnerProgram, typename InnerInstance>
class SimultaneousRCProgram {
 public:
  SimultaneousRCProgram(std::shared_ptr<const SimultaneousLayout<InnerInstance>> layout,
                        int id, typesys::Value input)
      : layout_(std::move(layout)), id_(id), input_(input), pref_(input) {
    RCONS_ASSERT(layout_ != nullptr);
    RCONS_ASSERT(id_ >= 0 && id_ < layout_->n);
  }

  sim::StepResult step(sim::Memory& memory) {
    const auto& layout = *layout_;
    // Each loop iteration either performs exactly one shared-memory access
    // and returns, or takes a purely local transition and continues.
    for (;;) {
      RCONS_ASSERT_MSG(round_ <= layout.max_rounds(),
                       "round budget exceeded; enlarge the layout");
      switch (pc_) {
        case kCheckRound: {
          const typesys::Value seen =
              memory.read(layout.round_regs[static_cast<std::size_t>(id_)]);
          pc_ = seen < round_ ? kWriteRound : kElseReadPrev;
          return sim::StepResult::running();
        }
        case kWriteRound:
          memory.write(layout.round_regs[static_cast<std::size_t>(id_)], round_);
          pc_ = round_ > 1 ? kReadPrev : kInner;
          return sim::StepResult::running();
        case kReadPrev: {
          const typesys::Value d =
              memory.read(layout.d_regs[static_cast<std::size_t>(round_ - 2)]);
          if (d != typesys::kBottom) pref_ = d;
          pc_ = kInner;
          return sim::StepResult::running();
        }
        case kInner: {
          if (!inner_.has_value()) {
            inner_.emplace(layout.rounds[static_cast<std::size_t>(round_ - 1)], id_,
                           pref_);
          }
          const sim::StepResult result = inner_->step(memory);
          if (result.kind == sim::StepResult::Kind::kDecided) {
            pref_ = result.decision;
            inner_.reset();
            pc_ = kWriteD;
          }
          return sim::StepResult::running();
        }
        case kWriteD:
          memory.write(layout.d_regs[static_cast<std::size_t>(round_ - 1)], pref_);
          scan_ = 0;
          pc_ = kScan;
          return sim::StepResult::running();
        case kScan: {
          const typesys::Value seen =
              memory.read(layout.round_regs[static_cast<std::size_t>(scan_)]);
          if (seen > round_) {
            round_ += 1;
            pc_ = kCheckRound;
            return sim::StepResult::running();
          }
          scan_ += 1;
          if (scan_ == layout.n) return sim::StepResult::decided(pref_);
          return sim::StepResult::running();
        }
        case kElseReadPrev: {
          if (round_ == 1) {  // no D[0]; purely local transition
            round_ += 1;
            pc_ = kCheckRound;
            continue;
          }
          const typesys::Value d =
              memory.read(layout.d_regs[static_cast<std::size_t>(round_ - 2)]);
          if (d != typesys::kBottom) pref_ = d;
          round_ += 1;
          pc_ = kCheckRound;
          return sim::StepResult::running();
        }
        default:
          RCONS_ASSERT_MSG(false, "invalid program counter");
      }
    }
  }

  void encode(std::vector<typesys::Value>& out) const {
    out.push_back(pc_);
    out.push_back(round_);
    out.push_back(pref_);
    out.push_back(scan_);
    out.push_back(inner_.has_value() ? 1 : 0);
    if (inner_.has_value()) inner_->encode(out);
  }

  // Inverse of encode(). A running inner is rebuilt exactly as step()'s
  // kInner case constructs it (pref_ is unchanged while an inner runs) and
  // then decodes its own state.
  std::size_t decode(const typesys::Value* data, std::size_t size) {
    RCONS_ASSERT_MSG(size >= 5, "truncated SimultaneousRCProgram encoding");
    pc_ = static_cast<int>(data[0]);
    round_ = data[1];
    pref_ = data[2];
    scan_ = static_cast<int>(data[3]);
    const bool has_inner = data[4] != 0;
    std::size_t used = 5;
    inner_.reset();
    if (has_inner) {
      RCONS_ASSERT(round_ >= 1 && round_ <= layout_->max_rounds());
      inner_.emplace(layout_->rounds[static_cast<std::size_t>(round_ - 1)], id_,
                     pref_);
      used += inner_->decode(data + used, size - used);
    }
    return used;
  }

 private:
  enum : int {
    kCheckRound = 0,
    kWriteRound = 1,
    kReadPrev = 2,
    kInner = 3,
    kWriteD = 4,
    kScan = 5,
    kElseReadPrev = 6,
  };

  std::shared_ptr<const SimultaneousLayout<InnerInstance>> layout_;
  int id_;
  typesys::Value input_;
  // Volatile run state:
  int pc_ = kCheckRound;
  typesys::Value round_ = 1;
  typesys::Value pref_;
  int scan_ = 0;
  std::optional<InnerProgram> inner_;
};

// Installs Round/D registers and `max_rounds` inner instances created by
// `install() -> InnerInstance` (capturing whatever memory it installs into).
template <typename InnerInstance, typename Installer>
std::shared_ptr<const SimultaneousLayout<InnerInstance>> install_simultaneous(
    sim::Memory& memory, int n, int max_rounds, Installer&& install) {
  RCONS_ASSERT(n >= 1 && max_rounds >= 1);
  auto layout = std::make_shared<SimultaneousLayout<InnerInstance>>();
  layout->n = n;
  for (int i = 0; i < n; ++i) layout->round_regs.push_back(memory.add_register(0));
  for (int r = 0; r < max_rounds; ++r) {
    layout->d_regs.push_back(memory.add_register(typesys::kBottom));
    layout->rounds.push_back(install());
  }
  return layout;
}

}  // namespace rcons::rc

#endif  // RCONS_RC_SIMULTANEOUS_HPP
