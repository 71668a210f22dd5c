// The typed property layer: which correctness notions a check verifies.
//
// A `PropertySet` is a small enum-tagged vector of `PropertySpec{kind, param}`
// entries plus the validity output set — the one description of "what counts
// as correct" that every execution backend consumes. Every backend (the
// explorers, the random runner and scripted replay) applies events through
// the engine's expansion core (engine/expand.cpp), which evaluates properties
// through the shared helpers below, so a violation found by one backend
// carries the same typed identity and describes itself identically when
// reproduced by another (the replay round-trip the check:: facade
// advertises).
//
// Properties:
//   kAgreement        — all outputs ever produced are equal (consensus).
//   kKSetAgreement    — at most `param` = k >= 2 distinct values are ever
//                       output ((k,n)-set agreement; Chaudhuri's relaxation).
//                       Mutually exclusive with kAgreement in one set.
//   kValidity         — every output is in `valid_outputs` (an empty set
//                       disables the check; `param` reserved for the validity
//                       variants of Civit et al., 0 = "output was proposed").
//   kWaitFreedom      — no run of a process exceeds the per-run step bound
//                       (`param` > 0 overrides; 0 inherits Budget's
//                       max_steps_per_run) — recoverable wait-freedom.
//   kAtMostOnceDecide — per-process output stability: a process that decides
//                       again after a crash must re-decide the same value.
//                       Catches anomalies k-set agreement alone cannot see.
//
// The default-constructed set is the classic trio (agreement, validity,
// wait-freedom) — the contract every pre-existing scenario checked.
//
// Hot-path discipline: the set pre-computes flat flags on construction, so
// the per-step/per-decide evaluation below is branch-on-int work with no
// virtual dispatch and no allocation (the distinct-output set lives in the
// caller's node or tracker and is bounded by k).
#ifndef RCONS_SIM_PROPERTIES_HPP
#define RCONS_SIM_PROPERTIES_HPP

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "typesys/core.hpp"
#include "util/assert.hpp"

namespace rcons::sim {

enum class PropertyKind : std::uint8_t {
  kNone = 0,  // not a property (e.g. the max_visited truncation marker)
  kAgreement,
  kKSetAgreement,
  kValidity,
  kWaitFreedom,
  kAtMostOnceDecide,
};

// Canonical spelling used by the spec grammar (`properties=` lists), `.viol`
// files, and check_cli --list.
const char* property_name(PropertyKind kind);

// Inverse of property_name; kNone for unknown spellings.
PropertyKind property_from_name(const std::string& name);

struct PropertySpec {
  PropertyKind kind = PropertyKind::kNone;
  // kKSetAgreement: k. kWaitFreedom: per-run bound (0 = inherit the budget).
  // kValidity: variant (0 = "every output was proposed"). Others: unused.
  std::int64_t param = 0;

  bool operator==(const PropertySpec&) const = default;
};

// A typed violation verdict: which property broke, with what parameter, and
// the human-readable description the legacy string-only API reported.
struct PropertyViolation {
  PropertyKind property = PropertyKind::kNone;
  std::int64_t param = 0;
  std::string description;

  bool operator==(const PropertyViolation&) const = default;
};

class PropertySet {
  // add() admits at most one spec per kind, so a set built by the
  // constructors and add() never outgrows this and never reallocates.
  static constexpr std::size_t kMaxSpecs = 5;

  struct EmptyTag {};
  explicit PropertySet(EmptyTag) { specs_.reserve(kMaxSpecs); }

 public:
  // The classic trio: agreement, validity, recoverable wait-freedom.
  PropertySet() {
    specs_.reserve(kMaxSpecs);
    add({PropertyKind::kAgreement, 0});
    add({PropertyKind::kValidity, 0});
    add({PropertyKind::kWaitFreedom, 0});
  }

  // Outputs the validity property checks against. Empty disables the check
  // even when kValidity is in the set (matching the pre-typed behaviour where
  // an empty valid set meant "validity not constrained").
  std::vector<typesys::Value> valid_outputs;

  static PropertySet classic(std::vector<typesys::Value> valid = {}) {
    PropertySet set;
    set.valid_outputs = std::move(valid);
    return set;
  }

  // An empty set: nothing is checked until add() is called.
  static PropertySet none() { return PropertySet(EmptyTag{}); }

  // Adds one property. Asserts on contradictory sets (agreement combined
  // with k-set agreement, k < 2, duplicate kinds).
  void add(PropertySpec spec) {
    RCONS_ASSERT_MSG(spec.kind != PropertyKind::kNone, "kNone is not a property");
    for (const PropertySpec& existing : specs_) {
      RCONS_ASSERT_MSG(existing.kind != spec.kind, "duplicate property kind");
    }
    switch (spec.kind) {
      case PropertyKind::kAgreement:
        RCONS_ASSERT_MSG(agreement_k_ == 0,
                         "agreement and k-set agreement are mutually exclusive");
        agreement_k_ = 1;
        break;
      case PropertyKind::kKSetAgreement:
        RCONS_ASSERT_MSG(agreement_k_ == 0,
                         "agreement and k-set agreement are mutually exclusive");
        RCONS_ASSERT_MSG(spec.param >= 2, "k-set agreement needs param k >= 2");
        agreement_k_ = static_cast<int>(spec.param);
        break;
      case PropertyKind::kValidity:
        validity_ = true;
        break;
      case PropertyKind::kWaitFreedom:
        RCONS_ASSERT_MSG(spec.param >= 0, "wait-freedom bound must be >= 0");
        wait_param_ = spec.param;
        break;
      case PropertyKind::kAtMostOnceDecide:
        at_most_once_ = true;
        break;
      case PropertyKind::kNone:
        break;
    }
    specs_.push_back(spec);
  }

  const std::vector<PropertySpec>& specs() const { return specs_; }

  // --- pre-computed hot-path accessors --------------------------------------

  // 0 = no output-agreement constraint; 1 = consensus agreement; k >= 2 =
  // k-set agreement. Doubles as the capacity of the distinct-output set the
  // backends track.
  int agreement_k() const { return agreement_k_; }

  bool checks_validity() const { return validity_; }

  // Effective per-run step bound: -1 = wait-freedom not in the set (no
  // check); otherwise the property's own bound, falling back to `fallback`
  // (the Budget's max_steps_per_run) when the property carries 0.
  std::int64_t wait_bound(std::int64_t fallback) const {
    if (wait_param_ < 0) return -1;
    return wait_param_ > 0 ? wait_param_ : fallback;
  }

  bool at_most_once() const { return at_most_once_; }

  // Comma-joined property names in add() order, e.g.
  // "agreement,validity,wait-freedom" — the spec grammar's `properties=`
  // value.
  std::string label() const {
    std::string out;
    for (const PropertySpec& spec : specs_) {
      if (!out.empty()) out += ",";
      out += property_name(spec.kind);
    }
    return out;
  }

 private:
  std::vector<PropertySpec> specs_;
  int agreement_k_ = 0;
  bool validity_ = false;
  std::int64_t wait_param_ = -1;
  bool at_most_once_ = false;
};

inline const char* property_name(PropertyKind kind) {
  switch (kind) {
    case PropertyKind::kNone:
      return "none";
    case PropertyKind::kAgreement:
      return "agreement";
    case PropertyKind::kKSetAgreement:
      return "k-set-agreement";
    case PropertyKind::kValidity:
      return "validity";
    case PropertyKind::kWaitFreedom:
      return "wait-freedom";
    case PropertyKind::kAtMostOnceDecide:
      return "at-most-once";
  }
  return "none";
}

inline PropertyKind property_from_name(const std::string& name) {
  if (name == "agreement") return PropertyKind::kAgreement;
  if (name == "k-set-agreement") return PropertyKind::kKSetAgreement;
  if (name == "validity") return PropertyKind::kValidity;
  if (name == "wait-freedom") return PropertyKind::kWaitFreedom;
  if (name == "at-most-once") return PropertyKind::kAtMostOnceDecide;
  return PropertyKind::kNone;
}

// --- shared evaluation helpers ----------------------------------------------
//
// The engine's expansion core funnels every property check through these two
// functions, so the typed identity and the message of a violation are
// byte-identical across backends. The mutable tracking state lives with the
// caller, inside each engine::Node (it is part of the deduplicated global
// state).

// Recoverable wait-freedom, checked after every step; `run_steps` counts the
// steps `process` took in its current run. `fallback_bound` is the Budget's
// max_steps_per_run; a non-positive effective bound disables the check.
inline std::optional<PropertyViolation> check_wait_freedom(
    const PropertySet& properties, int process, std::int64_t run_steps,
    std::int64_t fallback_bound) {
  const std::int64_t bound = properties.wait_bound(fallback_bound);
  if (bound <= 0 || run_steps <= bound) return std::nullopt;
  return PropertyViolation{
      PropertyKind::kWaitFreedom, bound,
      "recoverable wait-freedom violated: process " + std::to_string(process) +
          " exceeded " + std::to_string(bound) + " steps in a single run"};
}

// The output-event properties, checked when `process` decides `value`:
// validity, then agreement / k-set agreement, then at-most-once decide.
//
// `distinct_outputs` is the sorted set of distinct values output so far
// (bounded by agreement_k(); untouched when no agreement property is set).
// `ever_output` / `last_output` are the per-process stability memory for
// kAtMostOnceDecide (pass empty vectors when the property is off —
// engine::make_root sizes them from the PropertySet so crash events cannot
// erase them). All three are updated in place when the checks pass.
inline std::optional<PropertyViolation> check_output(
    const PropertySet& properties, int process, typesys::Value value,
    std::vector<typesys::Value>& distinct_outputs,
    std::vector<std::uint8_t>& ever_output,
    std::vector<typesys::Value>& last_output) {
  if (properties.checks_validity() && !properties.valid_outputs.empty()) {
    bool valid = false;
    for (const typesys::Value v : properties.valid_outputs) {
      if (v == value) {
        valid = true;
        break;
      }
    }
    if (!valid) {
      return PropertyViolation{
          PropertyKind::kValidity, 0,
          "validity violated: process " + std::to_string(process) + " decided " +
              std::to_string(value) + ", which is not among the inputs"};
    }
  }

  const int k = properties.agreement_k();
  if (k > 0) {
    const auto it =
        std::lower_bound(distinct_outputs.begin(), distinct_outputs.end(), value);
    if (it == distinct_outputs.end() || *it != value) {
      if (static_cast<int>(distinct_outputs.size()) >= k) {
        if (k == 1) {
          return PropertyViolation{
              PropertyKind::kAgreement, 1,
              "agreement violated: process " + std::to_string(process) +
                  " decided " + std::to_string(value) +
                  " but an earlier output was " +
                  std::to_string(distinct_outputs.front())};
        }
        return PropertyViolation{
            PropertyKind::kKSetAgreement, k,
            "k-set agreement violated (k=" + std::to_string(k) + "): process " +
                std::to_string(process) + " decided " + std::to_string(value) +
                ", a " + std::to_string(k + 1) + "th distinct output"};
      }
      distinct_outputs.insert(it, value);
    }
  }

  if (properties.at_most_once() && !ever_output.empty()) {
    const auto idx = static_cast<std::size_t>(process);
    RCONS_ASSERT(idx < ever_output.size() && idx < last_output.size());
    if (ever_output[idx] != 0 && last_output[idx] != value) {
      return PropertyViolation{
          PropertyKind::kAtMostOnceDecide, 0,
          "at-most-once decide violated: process " + std::to_string(process) +
              " decided " + std::to_string(value) + " after deciding " +
              std::to_string(last_output[idx]) + " in an earlier run"};
    }
    ever_output[idx] = 1;
    last_output[idx] = value;
  }

  return std::nullopt;
}

}  // namespace rcons::sim

#endif  // RCONS_SIM_PROPERTIES_HPP
