// Non-owning bundle of observability sinks, threaded through every backend
// config (sim::ExplorerConfig, sim::RandomRunConfig, check::CheckRequest).
// Null members switch the corresponding instrumentation off entirely: the
// backends guard every obs touch behind a pointer check, and the hot loops
// additionally buffer their counters in the plain per-worker locals they
// already keep and only flush deltas at batch boundaries — so a
// default-constructed Hooks costs nothing on the hot path.
//
// The sinks themselves (obs/metrics.hpp, obs/trace.hpp) are owned elsewhere —
// typically by an obs::Session (obs/session.hpp) that outlives the check —
// which keeps this struct trivially copyable and safe to embed in configs
// that are copied per run.
#ifndef RCONS_OBS_HOOKS_HPP
#define RCONS_OBS_HOOKS_HPP

namespace rcons::obs {

class MetricsRegistry;
class Tracer;

struct Hooks {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;

  bool enabled() const { return metrics != nullptr || tracer != nullptr; }
};

}  // namespace rcons::obs

#endif  // RCONS_OBS_HOOKS_HPP
