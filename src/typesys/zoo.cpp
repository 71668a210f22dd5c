#include "typesys/zoo.hpp"

#include <charconv>
#include <optional>
#include <string_view>
#include <utility>

#include "typesys/types/containers.hpp"
#include "typesys/types/register.hpp"
#include "typesys/types/rmw.hpp"
#include "typesys/types/sn.hpp"
#include "typesys/types/tn.hpp"
#include "util/assert.hpp"

namespace rcons::typesys {

std::vector<ZooEntry> make_zoo(int family_n) {
  RCONS_ASSERT(family_n >= 4);
  std::vector<ZooEntry> zoo;
  auto add = [&zoo](std::unique_ptr<ObjectType> type, int disc, int rec,
                    std::string provenance) {
    zoo.push_back(ZooEntry{std::move(type), disc, rec, std::move(provenance)});
  };

  add(std::make_unique<RegisterType>(), 1, 1, "Herlihy 1991: cons(register)=1");
  add(std::make_unique<CounterType>(), 1, 1, "commutative, ack responses");
  add(std::make_unique<MaxRegisterType>(), 1, 1, "commutative, ack responses");
  add(std::make_unique<TestAndSetType>(), 2, 1,
      "Herlihy 1991: cons(TAS)=2; state forgets first updater");
  add(std::make_unique<FetchAndIncrementType>(), 2, 1,
      "Herlihy 1991: cons(F&I)=2; state is a pure count");
  add(std::make_unique<SwapType>(), 2, 1,
      "Herlihy 1991: cons(swap)=2; last write wins in state");
  add(std::make_unique<CompareAndSwapType>(), kUnbounded, kUnbounded,
      "Herlihy 1991: cons(CAS)=inf; first CAS recorded forever");
  add(std::make_unique<StickyBitType>(), kUnbounded, kUnbounded,
      "Plotkin sticky bit: cons=inf; recording trivially");
  add(std::make_unique<ConsensusObjectType>(), kUnbounded, kUnbounded,
      "idealized consensus object");
  // Bare stack/queue state machines satisfy n-recording for every n (pushes
  // record arrival order), but only the readable variants may invoke
  // Theorem 8; Appendix H shows rcons(standard stack) = 1.
  add(std::make_unique<StackType>(/*readable=*/false), kUnbounded, kUnbounded,
      "paper App. H: rcons(stack)=1 — Thm 8 inapplicable (not readable)");
  add(std::make_unique<StackType>(/*readable=*/true), kUnbounded, kUnbounded,
      "readable stack: state records push order; rcons=inf");
  add(std::make_unique<QueueType>(/*readable=*/false), kUnbounded, kUnbounded,
      "paper App. H: rcons(queue)=1 — Thm 8 inapplicable (not readable)");
  add(std::make_unique<QueueType>(/*readable=*/true), kUnbounded, kUnbounded,
      "readable queue: state records enqueue order; rcons=inf");
  add(std::make_unique<TnType>(family_n), family_n, family_n - 2,
      "paper Prop. 19: n-discerning, not (n-1)-recording; Thm 16: (n-2)-recording");
  add(std::make_unique<SnType>(family_n), family_n, family_n,
      "paper Prop. 21: n-recording, not (n+1)-discerning");
  return zoo;
}

namespace {

// The parameter of a family name like "Sn(5)": a plain decimal that fits an
// int and is at least `min`. No sign, no spaces, no trailing characters.
std::optional<int> family_parameter(std::string_view name, std::string_view prefix,
                                    int min) {
  if (!name.starts_with(prefix) || !name.ends_with(')')) return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - 1);
  if (digits.empty() || digits.front() < '0' || digits.front() > '9') {
    return std::nullopt;
  }
  int value = 0;
  const auto [end, error] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (error != std::errc() || end != digits.data() + digits.size() || value < min) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::unique_ptr<ObjectType> make_type(const std::string& name) {
  if (name == "register") return std::make_unique<RegisterType>();
  if (name == "counter") return std::make_unique<CounterType>();
  if (name == "max-register") return std::make_unique<MaxRegisterType>();
  if (name == "test-and-set") return std::make_unique<TestAndSetType>();
  if (name == "fetch-and-increment") return std::make_unique<FetchAndIncrementType>();
  if (name == "swap") return std::make_unique<SwapType>();
  if (name == "compare-and-swap") return std::make_unique<CompareAndSwapType>();
  if (name == "sticky-bit") return std::make_unique<StickyBitType>();
  if (name == "consensus-object") return std::make_unique<ConsensusObjectType>();
  if (name == "stack") return std::make_unique<StackType>(false);
  if (name == "readable-stack") return std::make_unique<StackType>(true);
  if (name == "queue") return std::make_unique<QueueType>(false);
  if (name == "readable-queue") return std::make_unique<QueueType>(true);
  // T_n needs n >= 4 (Proposition 19), S_n needs n >= 2 (Proposition 21).
  if (const auto k = family_parameter(name, "Tn(", 4)) return std::make_unique<TnType>(*k);
  if (const auto k = family_parameter(name, "Sn(", 2)) return std::make_unique<SnType>(*k);
  return nullptr;
}

}  // namespace rcons::typesys
