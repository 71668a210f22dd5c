// Materializes the system a ScenarioSpec describes — the one place the spec
// grammar's `algo=` field is interpreted, shared by the spec runner
// (check/spec_runner.hpp), check_cli's `.viol` replay, and the tests/corpus/
// violation corpus so a spec line means the same system everywhere.
//
//   algo=team           — Figure 2 recoverable team consensus over the
//                         spec's type (asserts the type is n-recording);
//                         inputs 101 (team A) / 202 (team B).
//   algo=halting        — Ruppert's halting-model tournament over an
//                         n-discerning type; inputs 1..n. Deliberately not
//                         crash-safe: the halting-TAS agreement violation.
//   algo=naive-register — write-then-read register race; inputs 1..n. The
//                         spec's type is unused (by convention `register`).
//   algo=k-set          — k-group split consensus (rc/k_set.hpp): each group
//                         solves Figure 2 team consensus over the spec's
//                         type among its own members, so at most k distinct
//                         values are ever output. Clean for
//                         properties=k-set-agreement,... and violating for
//                         plain agreement — the verdict pair the typed
//                         property layer exists to express.
//
// The returned system carries the spec's `sim::PropertySet`
// (spec_properties(spec), i.e. `properties=`/`k=`, defaulting to the classic
// trio) with the construction's inputs as the validity set. `symmetry=on`
// fills symmetry_classes: team consensus groups same-(team, op) roles; the
// halting tournament and the k-set split attach their
// staged_symmetry_classes declarations; the naive register race has none.
#ifndef RCONS_CHECK_SPEC_SYSTEM_HPP
#define RCONS_CHECK_SPEC_SYSTEM_HPP

#include <string>

#include "check/check.hpp"
#include "check/scenario_spec.hpp"

namespace rcons::check {

// Builds the spec's system. Asserts on specs whose type cannot support the
// algorithm (parse validation already guarantees the type exists).
ScenarioSystem build_spec_system(const ScenarioSpec& spec);

// The label shown for a spec in tables and generated file names: the spec's
// own name when given, otherwise "<algo>/<type>/n=N/<model>/c=B" (plus
// "/k=K" for k-set specs and "/props=<list>" for non-default property sets).
std::string spec_display_name(const ScenarioSpec& spec);

}  // namespace rcons::check

#endif  // RCONS_CHECK_SPEC_SYSTEM_HPP
