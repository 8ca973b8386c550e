// Golden-equivalence suite for the dense-state hot path (see DESIGN.md,
// "Hot-path data layout").
//
// The arena-backed schedulers/allocator were written to be *decision
// equivalent* with the seed (hash-map based) implementations: identical
// floating-point operation order, identical tie-breaks, identical results.
// This suite keeps them honest:
//
//   1. Reference (seed-logic) implementations of the rate allocator and all
//      five schedulers live in namespace `ref` below -- verbatim ports of
//      the pre-dense code, hash maps and all. (The allocator reference
//      tracks the canonical algorithm, which since the incremental
//      reallocation change is *per-component* progressive filling; it stays
//      map-based so it keeps pinning dense-vs-map equivalence.)
//   2. Randomized scenarios (>= 200 in total across big-switch and fat-tree
//      fabrics) run both implementations on identical flow sets and assert
//      bit-identical per-flow weights, rate caps and rates.
//   3. Full-simulation runs compare per-flow finish times, makespan and
//      total EchelonFlow tardiness end to end, EchelonFlow-MADD also under a
//      park/resume schedule.
//   4. An allocation-counting operator-new hook proves the steady-state
//      control() + allocate() path performs zero heap allocations.
//   5. The Simulator satellite changes are covered: submit_flow now throws
//      on unroutable endpoints instead of release-mode UB.

// The allocation-counting operator-new hook (and the ECHELON_ALLOC_HOOK
// sanitizer gate) live in the shared harness so all three equivalence suites
// count with the same machinery.
#include "equivalence_harness.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cluster/stack.hpp"
#include "common/rng.hpp"
#include "echelon/aalo.hpp"
#include "echelon/coflow_madd.hpp"
#include "echelon/echelon_madd.hpp"
#include "echelon/registry.hpp"
#include "echelon/sincronia.hpp"
#include "echelon/srpt.hpp"
#include "topology/route_table.hpp"

namespace echelon {
namespace {

using ef::Arrangement;
using ef::Registry;
using netsim::Flow;
using netsim::FlowSpec;
using netsim::Simulator;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ============================================================================
// Reference (seed-logic) implementations
// ============================================================================
namespace ref {

// --- reference RateAllocator::allocate --------------------------------------
// The canonical algorithm (since the incremental-allocation change) is
// *per-component* progressive filling: contended flows are partitioned into
// link-contention components and each component is water-filled
// independently (max-min fairness is separable across link-disjoint flow
// sets). Since the equivalence-class fill change the per-round link update
// is the *grouping-invariant* form (DESIGN.md §11): every component link's
// remaining capacity decreases once per round by delta * unfrozen_weight,
// instead of once per member by member_weight * delta -- the form whose
// floating-point trajectory is independent of how flows are grouped into
// fill units, which is what lets the class fill be bit-identical to the
// per-flow fill. This reference implements exactly that with hash maps and
// a plain DSU; the production allocator uses epoch-stamped dense scratch and
// a union-find threaded through the per-link state -- see
// netsim/allocator.cpp.
// Degenerate (<= 0) weights are clamped to kMinFlowWeight, mirroring the
// production fix for the old divide-by-zero.
//
// Explicit-rate rule (DESIGN.md §7): when every contended flow carries a
// cap and no link's cap sum, taken in span order, exceeds its capacity by
// more than the relative slack kNoise, each flow's rate is exactly its cap
// and nothing is filled. Summed here per link in a std::map.
constexpr double kNoise = 1e-12;

bool caps_fit(const topology::Topology& topo, std::span<Flow*> flows) {
  std::map<std::uint64_t, double> cap_sum;
  for (const Flow* f : flows) {
    if (f->finished() || f->path.empty()) continue;
    if (!f->rate_cap) return false;
    if (*f->rate_cap <= 0.0) continue;
    for (LinkId lid : f->path) {
      double& sum = cap_sum[lid.value()];
      sum += *f->rate_cap;
      if (sum > topo.link(lid).capacity * (1.0 + kNoise)) return false;
    }
  }
  return true;
}

void allocate(const topology::Topology& topo, std::span<Flow*> flows) {
  if (caps_fit(topo, flows)) {
    for (Flow* f : flows) {
      if (f->finished()) {
        f->rate = 0.0;
      } else if (f->rate_cap) {
        f->rate = *f->rate_cap > 0.0 ? *f->rate_cap : 0.0;
      } else {
        f->rate = kInf;  // loopback: the only uncapped flow that fits
      }
    }
    return;
  }
  struct LinkLoad {
    double remaining_capacity = 0.0;
    double unfrozen_weight = 0.0;
    std::size_t owner = 0;  // first contended-flow index on this link
  };
  std::unordered_map<std::uint64_t, LinkLoad> links;

  std::vector<Flow*> contended;
  std::vector<double> weight;  // clamped effective weights
  std::vector<std::size_t> parent;
  auto find = [&parent](std::size_t s) {
    while (parent[s] != s) {
      parent[s] = parent[parent[s]];
      s = parent[s];
    }
    return s;
  };
  for (Flow* f : flows) {
    if (f->finished()) {
      f->rate = 0.0;
      continue;
    }
    f->rate = 0.0;
    if (f->rate_cap && *f->rate_cap <= 0.0) continue;
    if (f->path.empty()) {
      f->rate = f->rate_cap ? *f->rate_cap : kInf;
      continue;
    }
    const std::size_t slot = contended.size();
    const double w = f->weight > netsim::kMinFlowWeight
                         ? f->weight
                         : netsim::kMinFlowWeight;
    contended.push_back(f);
    weight.push_back(w);
    parent.push_back(slot);
    for (LinkId lid : f->path) {
      auto [it, inserted] = links.try_emplace(lid.value());
      if (inserted) {
        it->second.remaining_capacity = topo.link(lid).capacity;
        it->second.owner = slot;
      }
      it->second.unfrozen_weight += w;
      const std::size_t ra = find(it->second.owner);
      const std::size_t rb = find(slot);
      if (ra != rb) parent[rb] = ra;
    }
  }

  // Bucket contended flows into components, first-member order outside and
  // span order inside (matching the production counting sort).
  std::unordered_map<std::size_t, std::size_t> comp_of_root;
  std::vector<std::vector<std::size_t>> comps;
  for (std::size_t s = 0; s < contended.size(); ++s) {
    const std::size_t r = find(s);
    auto [it, inserted] = comp_of_root.try_emplace(r, comps.size());
    if (inserted) comps.emplace_back();
    comps[it->second].push_back(s);
  }

  for (const std::vector<std::size_t>& members : comps) {
    // Deduped component link list (first-use member order): the canonical
    // per-round update touches every component link exactly once.
    std::vector<std::uint64_t> comp_links;
    {
      std::unordered_map<std::uint64_t, bool> listed;
      for (const std::size_t s : members) {
        for (LinkId lid : contended[s]->path) {
          if (listed.try_emplace(lid.value(), true).second) {
            comp_links.push_back(lid.value());
          }
        }
      }
    }
    std::vector<std::size_t> unfrozen = members;
    while (!unfrozen.empty()) {
      double delta = kInf;
      for (const std::size_t s : unfrozen) {
        const Flow* f = contended[s];
        for (LinkId lid : f->path) {
          const LinkLoad& ll = links.at(lid.value());
          delta = std::min(delta, ll.remaining_capacity / ll.unfrozen_weight);
        }
        if (f->rate_cap) {
          delta = std::min(delta, (*f->rate_cap - f->rate) / weight[s]);
        }
      }
      if (!std::isfinite(delta)) break;
      delta = std::max(delta, 0.0);

      std::vector<std::size_t> next;
      next.reserve(unfrozen.size());
      for (const std::size_t s : unfrozen) {
        contended[s]->rate += weight[s] * delta;
      }
      // Grouping-invariant link update: once per link per round, by the
      // link's aggregate unfrozen weight (a fully-frozen link carries
      // unfrozen_weight == +-0.0, making the subtraction an exact no-op).
      for (const std::uint64_t l : comp_links) {
        LinkLoad& ll = links.at(l);
        ll.remaining_capacity -= delta * ll.unfrozen_weight;
      }
      // Freeze at the cap or on a saturated link; when nothing froze, the
      // constraint that set delta was met only up to rounding, so retry
      // with a relative tolerance (the production fill's relaxed pass).
      constexpr double kEps = 1e-12;
      const auto freeze = [&](bool relaxed) {
        next.clear();
        for (const std::size_t s : unfrozen) {
          Flow* f = contended[s];
          bool frozen = false;
          if (f->rate_cap &&
              (f->rate >= *f->rate_cap - kEps ||
               (relaxed && f->rate >= *f->rate_cap - kNoise * *f->rate_cap))) {
            f->rate = *f->rate_cap;
            frozen = true;
          } else {
            for (LinkId lid : f->path) {
              const double rem = links.at(lid.value()).remaining_capacity;
              if (rem <= kEps ||
                  (relaxed && rem <= kNoise * topo.link(lid).capacity)) {
                frozen = true;
                break;
              }
            }
          }
          if (frozen) {
            for (LinkId lid : f->path) {
              links.at(lid.value()).unfrozen_weight -= weight[s];
            }
          } else {
            next.push_back(s);
          }
        }
      };
      freeze(false);
      if (next.size() == unfrozen.size()) freeze(true);
      if (next.size() == unfrozen.size()) break;
      unfrozen.swap(next);
    }
  }
}

// --- seed ResidualCaps (hash-map residuals) ---------------------------------
class ResidualCaps {
 public:
  explicit ResidualCaps(const topology::Topology* topo) : topo_(topo) {}

  [[nodiscard]] double residual(LinkId lid) const {
    const auto it = residual_.find(lid.value());
    return it != residual_.end() ? it->second : topo_->link(lid).capacity;
  }
  [[nodiscard]] double path_residual(const Flow& f) const {
    double r = kInf;
    for (LinkId lid : f.path) r = std::min(r, residual(lid));
    return r;
  }
  void consume(const Flow& f, double rate) {
    if (rate <= 0.0) return;
    for (LinkId lid : f.path) {
      auto [it, inserted] =
          residual_.try_emplace(lid.value(), topo_->link(lid).capacity);
      it->second = std::max(0.0, it->second - rate);
    }
  }

 private:
  const topology::Topology* topo_;
  std::unordered_map<std::uint64_t, double> residual_;
};

// --- seed SRPT --------------------------------------------------------------
class Srpt final : public netsim::NetworkScheduler {
 public:
  void control(Simulator& sim, std::span<Flow*> active) override {
    std::vector<Flow*> order;
    order.reserve(active.size());
    for (Flow* f : active) {
      if (f->path.empty()) {
        f->weight = 1.0;
        f->rate_cap.reset();
        continue;
      }
      order.push_back(f);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Flow* a, const Flow* b) {
                       if (a->remaining != b->remaining) {
                         return a->remaining < b->remaining;
                       }
                       return a->id < b->id;
                     });
    ResidualCaps caps(&sim.topology());
    for (Flow* f : order) {
      const double rate = caps.path_residual(*f);
      f->weight = 1.0;
      f->rate_cap = std::isfinite(rate) ? rate : 0.0;
      caps.consume(*f, f->rate_cap.value());
    }
  }
  [[nodiscard]] std::string name() const override { return "ref-srpt"; }
};

// --- seed Coflow-MADD (SEBF + MADD, std::map groups) ------------------------
class CoflowMadd final : public netsim::NetworkScheduler {
 public:
  void control(Simulator& sim, std::span<Flow*> active) override {
    const topology::Topology& topo = sim.topology();
    struct Group {
      std::vector<Flow*> flows;
      double gamma_standalone = 0.0;
    };
    std::map<std::uint64_t, Group> groups;
    constexpr std::uint64_t kSingletonBase = 1ULL << 63;
    for (Flow* f : active) {
      if (f->path.empty()) {
        f->weight = 1.0;
        f->rate_cap.reset();
        continue;
      }
      const std::uint64_t key = f->spec.group.valid()
                                    ? f->spec.group.value()
                                    : kSingletonBase | f->id.value();
      groups[key].flows.push_back(f);
    }

    auto standalone_gamma = [&topo](const Group& g) {
      std::unordered_map<std::uint64_t, double> load;
      for (const Flow* f : g.flows) {
        for (LinkId lid : f->path) load[lid.value()] += f->remaining;
      }
      double gamma = 0.0;
      for (const auto& [lid, bytes] : load) {
        const double cap = topo.link(LinkId{lid}).capacity;
        gamma = std::max(gamma, cap > 0.0 ? bytes / cap : kInf);
      }
      return gamma;
    };
    auto residual_gamma = [](const ResidualCaps& caps, const Group& g) {
      std::unordered_map<std::uint64_t, double> load;
      for (const Flow* f : g.flows) {
        for (LinkId lid : f->path) load[lid.value()] += f->remaining;
      }
      double gamma = 0.0;
      for (const auto& [lid, bytes] : load) {
        const double cap = caps.residual(LinkId{lid});
        if (cap <= 0.0) return kInf;
        gamma = std::max(gamma, bytes / cap);
      }
      return gamma;
    };

    std::vector<std::map<std::uint64_t, Group>::iterator> order;
    order.reserve(groups.size());
    for (auto it = groups.begin(); it != groups.end(); ++it) {
      it->second.gamma_standalone = standalone_gamma(it->second);
      order.push_back(it);
    }
    std::stable_sort(order.begin(), order.end(), [](auto a, auto b) {
      return a->second.gamma_standalone < b->second.gamma_standalone;
    });

    ResidualCaps caps(&topo);
    for (auto it : order) {
      Group& g = it->second;
      const double gamma = residual_gamma(caps, g);
      for (Flow* f : g.flows) {
        double rate =
            std::isinf(gamma) || gamma <= 0.0 ? 0.0 : f->remaining / gamma;
        rate = std::min(rate, caps.path_residual(*f));
        f->weight = 1.0;
        f->rate_cap = rate;
        caps.consume(*f, rate);
      }
    }

    for (auto it : order) {
      Group& g = it->second;
      std::unordered_map<std::uint64_t, double> load;
      for (const Flow* f : g.flows) {
        for (LinkId lid : f->path) load[lid.value()] += f->remaining;
      }
      double lambda = kInf;
      for (const auto& [lid, bytes] : load) {
        if (bytes <= 0.0) continue;
        lambda = std::min(lambda, caps.residual(LinkId{lid}) / bytes);
      }
      if (!std::isfinite(lambda) || lambda < 0.0) lambda = 0.0;
      for (Flow* f : g.flows) {
        const double extra = f->remaining * lambda;
        if (extra <= 0.0) continue;
        f->rate_cap = *f->rate_cap + extra;
        caps.consume(*f, extra);
      }
    }
    for (auto it : order) {
      for (Flow* f : it->second.flows) {
        const double extra = caps.path_residual(*f);
        if (extra <= 0.0 || !std::isfinite(extra)) continue;
        f->rate_cap = *f->rate_cap + extra;
        caps.consume(*f, extra);
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "ref-coflow"; }
};

// --- seed EchelonFlow-MADD (std::map groups, per-pass sorts) ----------------
class EchelonMadd final : public netsim::NetworkScheduler {
 public:
  explicit EchelonMadd(const Registry* registry) : registry_(registry) {}

  void control(Simulator& sim, std::span<Flow*> active) override {
    const topology::Topology& topo = sim.topology();
    const SimTime now = sim.now();

    struct Member {
      Flow* flow = nullptr;
      SimTime deadline = 0.0;
    };
    struct Group {
      std::vector<Member> members;
      double tardiness_standalone = 0.0;
    };

    auto min_uniform_tardiness = [&topo, now](const Group& g,
                                              const ResidualCaps* residual) {
      struct PerLink {
        double prefix_bytes = 0.0;
        double cap = 0.0;
      };
      std::unordered_map<std::uint64_t, PerLink> links;
      double t = 0.0;
      for (const Member& m : g.members) {
        for (LinkId lid : m.flow->path) {
          auto [it, inserted] = links.try_emplace(lid.value());
          if (inserted) {
            it->second.cap = residual != nullptr
                                 ? residual->residual(lid)
                                 : topo.link(lid).capacity;
          }
          it->second.prefix_bytes += m.flow->remaining;
          if (it->second.cap <= 0.0) return kInf;
          t = std::max(t, it->second.prefix_bytes / it->second.cap -
                              (m.deadline - now));
        }
      }
      return t;
    };

    std::map<std::uint64_t, Group> groups;
    constexpr std::uint64_t kSingletonBase = 1ULL << 63;
    for (Flow* f : active) {
      if (f->path.empty()) {
        f->weight = 1.0;
        f->rate_cap.reset();
        continue;
      }
      std::uint64_t key = kSingletonBase | f->id.value();
      SimTime deadline = f->start_time;
      if (f->spec.group.valid() && registry_ != nullptr &&
          registry_->contains(f->spec.group)) {
        const ef::EchelonFlow& eflow = registry_->get(f->spec.group);
        if (const auto d = eflow.ideal_finish(f->spec.index_in_group)) {
          key = f->spec.group.value();
          deadline = *d;
        }
      }
      groups[key].members.push_back(Member{f, deadline});
    }

    std::vector<std::map<std::uint64_t, Group>::iterator> order;
    order.reserve(groups.size());
    for (auto it = groups.begin(); it != groups.end(); ++it) {
      Group& g = it->second;
      std::stable_sort(g.members.begin(), g.members.end(),
                       [](const Member& a, const Member& b) {
                         return a.deadline < b.deadline;
                       });
      g.tardiness_standalone = min_uniform_tardiness(g, nullptr);
      order.push_back(it);
    }
    std::stable_sort(order.begin(), order.end(), [](auto a, auto b) {
      return a->second.tardiness_standalone < b->second.tardiness_standalone;
    });

    ResidualCaps caps(&topo);
    for (auto it : order) {
      Group& g = it->second;
      const double tstar = min_uniform_tardiness(g, &caps);
      std::size_t i = 0;
      while (i < g.members.size()) {
        std::size_t j = i + 1;
        while (j < g.members.size() &&
               time_eq(g.members[j].deadline, g.members[i].deadline)) {
          ++j;
        }
        for (std::size_t k = i; k < j; ++k) {
          Flow* f = g.members[k].flow;
          double rate = 0.0;
          if (std::isfinite(tstar)) {
            const double horizon = g.members[k].deadline + tstar - now;
            rate = horizon > 0.0 ? f->remaining / horizon : kInf;
          }
          rate = std::min(rate, caps.path_residual(*f));
          f->weight = 1.0;
          f->rate_cap = rate;
          caps.consume(*f, rate);
        }
        std::unordered_map<std::uint64_t, double> load;
        for (std::size_t k = i; k < j; ++k) {
          const Flow* f = g.members[k].flow;
          for (LinkId lid : f->path) load[lid.value()] += f->remaining;
        }
        double lambda = kInf;
        for (const auto& [lid, bytes] : load) {
          if (bytes <= 0.0) continue;
          lambda = std::min(lambda, caps.residual(LinkId{lid}) / bytes);
        }
        if (std::isfinite(lambda) && lambda > 0.0) {
          for (std::size_t k = i; k < j; ++k) {
            Flow* f = g.members[k].flow;
            const double extra = f->remaining * lambda;
            if (extra <= 0.0) continue;
            f->rate_cap = *f->rate_cap + extra;
            caps.consume(*f, extra);
          }
        }
        i = j;
      }
    }

    for (auto it : order) {
      for (Member& m : it->second.members) {
        const double extra = caps.path_residual(*m.flow);
        if (extra <= 0.0 || !std::isfinite(extra)) continue;
        m.flow->rate_cap = *m.flow->rate_cap + extra;
        caps.consume(*m.flow, extra);
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "ref-echelon"; }

 private:
  const Registry* registry_;
};

// --- seed Aalo (std::map groups, per-pass sort) -----------------------------
class Aalo final : public netsim::NetworkScheduler {
 public:
  explicit Aalo(ef::AaloConfig config = {}) : config_(config) {}

  void on_flow_arrival(Simulator&, const Flow& flow) override {
    const std::uint64_t key = flow.spec.group.valid()
                                  ? flow.spec.group.value()
                                  : (1ULL << 63) | flow.id.value();
    group_arrival_.try_emplace(key, arrival_counter_++);
  }

  void control(Simulator& sim, std::span<Flow*> active) override {
    struct Group {
      std::vector<Flow*> flows;
      Bytes sent = 0.0;
      std::uint64_t arrival = 0;
      int queue = 0;
    };
    std::map<std::uint64_t, Group> groups;
    for (Flow* f : active) {
      if (f->path.empty()) {
        f->weight = 1.0;
        f->rate_cap.reset();
        continue;
      }
      const std::uint64_t key = f->spec.group.valid()
                                    ? f->spec.group.value()
                                    : (1ULL << 63) | f->id.value();
      Group& g = groups[key];
      g.flows.push_back(f);
      g.sent += f->spec.size - f->remaining;
      const auto it = group_arrival_.find(key);
      g.arrival = it != group_arrival_.end() ? it->second : arrival_counter_;
    }

    std::vector<Group*> order;
    order.reserve(groups.size());
    for (auto& [key, g] : groups) {
      (void)key;
      double threshold = config_.base_threshold;
      int q = 0;
      while (q < config_.num_queues - 1 && g.sent >= threshold) {
        threshold *= config_.multiplier;
        ++q;
      }
      g.queue = q;
      order.push_back(&g);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Group* a, const Group* b) {
                       if (a->queue != b->queue) return a->queue < b->queue;
                       return a->arrival < b->arrival;
                     });

    ResidualCaps caps(&sim.topology());
    for (Group* g : order) {
      for (Flow* f : g->flows) {
        const double rate = caps.path_residual(*f);
        f->weight = 1.0;
        f->rate_cap = std::isfinite(rate) ? rate : 0.0;
        caps.consume(*f, *f->rate_cap);
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "ref-aalo"; }

 private:
  ef::AaloConfig config_;
  std::unordered_map<std::uint64_t, std::uint64_t> group_arrival_;
  std::uint64_t arrival_counter_ = 0;
};

// --- seed Sincronia (BSSI + greedy fill, hash-map residuals) ----------------
class Sincronia final : public netsim::NetworkScheduler {
 public:
  void control(Simulator& sim, std::span<Flow*> active) override {
    struct Group {
      std::vector<Flow*> flows;
      std::unordered_map<std::uint64_t, Bytes> port_load;
      bool placed = false;
    };
    std::map<std::uint64_t, Group> groups;
    for (Flow* f : active) {
      if (f->path.empty()) {
        f->weight = 1.0;
        f->rate_cap.reset();
        continue;
      }
      const std::uint64_t key = f->spec.group.valid()
                                    ? f->spec.group.value()
                                    : (1ULL << 63) | f->id.value();
      Group& g = groups[key];
      g.flows.push_back(f);
      for (LinkId lid : f->path) g.port_load[lid.value()] += f->remaining;
    }
    if (groups.empty()) return;

    const topology::Topology& topo = sim.topology();
    std::vector<Group*> reverse_order;
    reverse_order.reserve(groups.size());
    std::unordered_map<std::uint64_t, Bytes> port_total;
    for (const auto& [key, g] : groups) {
      (void)key;
      for (const auto& [port, bytes] : g.port_load) port_total[port] += bytes;
    }
    for (std::size_t placed = 0; placed < groups.size(); ++placed) {
      std::uint64_t bottleneck = 0;
      double worst = -1.0;
      for (const auto& [port, bytes] : port_total) {
        const double cap = topo.link(LinkId{port}).capacity;
        const double load = cap > 0.0 ? bytes / cap : bytes;
        if (load > worst) {
          worst = load;
          bottleneck = port;
        }
      }
      Group* last = nullptr;
      Bytes last_bytes = -1.0;
      for (auto& [key, g] : groups) {
        (void)key;
        if (g.placed) continue;
        const auto it = g.port_load.find(bottleneck);
        const Bytes b = it != g.port_load.end() ? it->second : 0.0;
        if (b > last_bytes) {
          last_bytes = b;
          last = &g;
        }
      }
      last->placed = true;
      reverse_order.push_back(last);
      for (const auto& [port, bytes] : last->port_load) {
        port_total[port] -= bytes;
      }
    }

    ResidualCaps caps(&topo);
    for (auto it = reverse_order.rbegin(); it != reverse_order.rend(); ++it) {
      for (Flow* f : (*it)->flows) {
        const double rate = caps.path_residual(*f);
        f->weight = 1.0;
        f->rate_cap = std::isfinite(rate) ? rate : 0.0;
        caps.consume(*f, *f->rate_cap);
      }
    }
  }
  [[nodiscard]] std::string name() const override { return "ref-sincronia"; }
};

}  // namespace ref

// ============================================================================
// Scenario generation
// ============================================================================

topology::BuiltFabric make_fabric(int topo_kind) {
  // 0: big switch (16 hosts), 1: fat-tree k=4 (16 hosts).
  return topo_kind == 0 ? topology::make_big_switch(16, 10e9)
                        : topology::make_fat_tree(4, 10e9);
}

// A control-pass scenario: value-typed flows (ids 0..N-1) plus a registry
// with bound reference times. Copy the flow vector per implementation so both
// sides see identical state.
struct PassScenario {
  std::vector<Flow> flows;
  std::unique_ptr<Registry> registry;
  std::unique_ptr<topology::RouteTable> routes;  // owns the flows' paths
};

PassScenario make_pass_scenario(const topology::BuiltFabric& fabric,
                                std::uint64_t seed) {
  Rng rng(seed);
  PassScenario sc;
  sc.registry = std::make_unique<Registry>();
  sc.routes = std::make_unique<topology::RouteTable>(&fabric.topo);
  const int hosts = static_cast<int>(fabric.hosts.size());

  // EchelonFlow groups with mixed arrangements.
  struct GroupInfo {
    EchelonFlowId id;
    int capacity = 0;   // arrangement cardinality
    int next_index = 0; // members assigned so far
  };
  std::vector<GroupInfo> groups;
  const int num_groups = 1 + static_cast<int>(rng.uniform_int(5));
  for (int g = 0; g < num_groups; ++g) {
    const int n = 2 + static_cast<int>(rng.uniform_int(7));
    Arrangement arr;
    switch (rng.uniform_int(3)) {
      case 0:
        arr = Arrangement::coflow(n);
        break;
      case 1:
        arr = Arrangement::pipeline(n, rng.uniform(1e-3, 20e-3));
        break;
      default:
        arr = Arrangement::fsdp(std::max(1, n / 2), 2, rng.uniform(1e-3, 5e-3),
                                rng.uniform(1e-3, 5e-3));
        break;
    }
    const int capacity = arr.size();
    groups.push_back({sc.registry->create(JobId{0}, std::move(arr)), capacity,
                      0});
  }

  const int num_flows = 8 + static_cast<int>(rng.uniform_int(33));
  for (int i = 0; i < num_flows; ++i) {
    Flow f;
    f.id = FlowId{static_cast<std::uint64_t>(i)};
    const int src = static_cast<int>(rng.uniform_int(hosts));
    int dst = static_cast<int>(rng.uniform_int(hosts));
    if (rng.uniform() < 0.05) dst = src;  // occasional loopback flow
    f.spec.src = fabric.hosts[src];
    f.spec.dst = fabric.hosts[dst];
    f.spec.size = rng.uniform(1e3, 200e6);
    // ~70% of flows belong to an EchelonFlow group (first one with room).
    if (rng.uniform() < 0.7) {
      const std::size_t start = rng.uniform_int(groups.size());
      for (std::size_t k = 0; k < groups.size(); ++k) {
        GroupInfo& g = groups[(start + k) % groups.size()];
        if (g.next_index < g.capacity) {
          f.spec.group = g.id;
          f.spec.index_in_group = g.next_index++;
          break;
        }
      }
    }
    f.remaining = f.spec.size * rng.uniform(0.05, 1.0);
    f.start_time = rng.uniform(0.0, 0.5);
    if (src != dst) {
      // Both fabrics are fully connected, so routing cannot fail here.
      f.path = sc.routes->path(
          *sc.routes->route(f.spec.src, f.spec.dst, f.id.value()));
    }
    // Bind reference times as the runtime would (ignores group-less flows;
    // members past the arrangement's cardinality are ignored too, exercising
    // the fallback-deadline path).
    sc.registry->note_arrival(f, f.start_time);
    sc.flows.push_back(std::move(f));
  }
  return sc;
}

// Runs `sched` + the dense allocator on copy A and `ref_sched` + the seed
// allocator on copy B; asserts bit-identical control decisions and rates.
void compare_pass(const topology::BuiltFabric& fabric, const PassScenario& sc,
                  netsim::NetworkScheduler& sched,
                  netsim::NetworkScheduler& ref_sched,
                  const std::string& tag) {
  std::vector<Flow> a = sc.flows;
  std::vector<Flow> b = sc.flows;
  std::vector<Flow*> pa, pb;
  for (Flow& f : a) pa.push_back(&f);
  for (Flow& f : b) pb.push_back(&f);

  Simulator sim(&fabric.topo);  // control() only reads topology() / now()

  sched.control(sim, pa);
  netsim::RateAllocator alloc(&fabric.topo);
  alloc.allocate(pa);

  ref_sched.control(sim, pb);
  ref::allocate(fabric.topo, pb);

  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(tag + " flow " + std::to_string(i));
    EXPECT_EQ(a[i].weight, b[i].weight);
    ASSERT_EQ(a[i].rate_cap.has_value(), b[i].rate_cap.has_value());
    if (a[i].rate_cap.has_value()) {
      EXPECT_EQ(*a[i].rate_cap, *b[i].rate_cap);
    }
    EXPECT_EQ(a[i].rate, b[i].rate);
  }
}

// ============================================================================
// 1) Allocator-only equivalence: random weights and caps.
// ============================================================================

TEST(DenseEquivalence, AllocatorMatchesSeedWaterFill) {
  for (int topo_kind = 0; topo_kind < 2; ++topo_kind) {
    const topology::BuiltFabric fabric = make_fabric(topo_kind);
    netsim::RateAllocator alloc(&fabric.topo);
    topology::RouteTable routes(&fabric.topo);
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      Rng rng(seed * 7919 + topo_kind);
      const int hosts = static_cast<int>(fabric.hosts.size());
      const int n = 4 + static_cast<int>(rng.uniform_int(40));
      std::vector<Flow> a;
      for (int i = 0; i < n; ++i) {
        Flow f;
        f.id = FlowId{static_cast<std::uint64_t>(i)};
        const int src = static_cast<int>(rng.uniform_int(hosts));
        int dst = static_cast<int>(rng.uniform_int(hosts));
        if (rng.uniform() < 0.05) dst = src;
        f.spec.src = fabric.hosts[src];
        f.spec.dst = fabric.hosts[dst];
        f.spec.size = rng.uniform(1e3, 100e6);
        f.remaining = f.spec.size;
        if (src != dst) {
          f.path =
              routes.path(*routes.route(f.spec.src, f.spec.dst, f.id.value()));
        }
        f.weight = rng.uniform(0.25, 4.0);
        if (rng.uniform() < 0.5) {
          f.rate_cap = rng.uniform(0.0, 12e9);  // sometimes 0 / above capacity
        }
        a.push_back(std::move(f));
      }
      std::vector<Flow> b = a;
      std::vector<Flow*> pa, pb;
      for (Flow& f : a) pa.push_back(&f);
      for (Flow& f : b) pb.push_back(&f);
      alloc.allocate(pa);
      ref::allocate(fabric.topo, pb);
      for (int i = 0; i < n; ++i) {
        SCOPED_TRACE("topo " + std::to_string(topo_kind) + " seed " +
                     std::to_string(seed) + " flow " + std::to_string(i));
        EXPECT_EQ(a[i].rate, b[i].rate);
      }
      // Both twins share their round form, so also hold the allocation to
      // the definition of weighted max-min.
      const certify::Report r = certify::certify_allocation(fabric.topo, pa);
      EXPECT_TRUE(r.ok()) << "topo " << topo_kind << " seed " << seed << ": "
                          << r.summary();
    }
  }
}

// ============================================================================
// 2) Scheduler control-pass equivalence (250 scenarios).
// ============================================================================

TEST(DenseEquivalence, SchedulersMatchSeedControlPasses) {
  for (int topo_kind = 0; topo_kind < 2; ++topo_kind) {
    const topology::BuiltFabric fabric = make_fabric(topo_kind);
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      const PassScenario sc =
          make_pass_scenario(fabric, seed * 104729 + topo_kind);
      const std::string tag =
          "topo " + std::to_string(topo_kind) + " seed " + std::to_string(seed);
      {
        ef::SrptScheduler s;
        ref::Srpt r;
        compare_pass(fabric, sc, s, r, tag + " srpt");
      }
      {
        ef::CoflowMaddScheduler s;
        ref::CoflowMadd r;
        compare_pass(fabric, sc, s, r, tag + " coflow");
      }
      {
        ef::AaloScheduler s;
        ref::Aalo r;
        compare_pass(fabric, sc, s, r, tag + " aalo");
      }
      {
        ef::SincroniaScheduler s;
        ref::Sincronia r;
        compare_pass(fabric, sc, s, r, tag + " sincronia");
      }
      {
        ef::EchelonMaddScheduler s(sc.registry.get());
        ref::EchelonMadd r(sc.registry.get());
        compare_pass(fabric, sc, s, r, tag + " echelon");
      }
    }
  }
}

// One scheduler instance must agree with seed decisions across *repeated*
// passes with churn in between (members finishing between passes, no
// membership hooks): its reused per-pass arenas carry no stale state.
void compare_repeated_passes(const topology::BuiltFabric& fabric,
                             const PassScenario& sc,
                             netsim::NetworkScheduler& s,
                             netsim::NetworkScheduler& r, std::uint64_t seed) {
  std::vector<Flow> a = sc.flows;
  std::vector<Flow> b = sc.flows;
  Simulator sim(&fabric.topo);
  Rng rng(seed);
  // 6 passes; between passes, retire a random suffix of flows and shrink
  // the remainders (as progress would).
  std::vector<std::size_t> alive(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) alive[i] = i;
  for (int pass = 0; pass < 6 && !alive.empty(); ++pass) {
    std::vector<Flow*> pa, pb;
    for (std::size_t i : alive) {
      pa.push_back(&a[i]);
      pb.push_back(&b[i]);
    }
    s.control(sim, pa);
    r.control(sim, pb);
    for (std::size_t i : alive) {
      SCOPED_TRACE(s.name() + " seed " + std::to_string(seed) + " pass " +
                   std::to_string(pass) + " flow " + std::to_string(i));
      ASSERT_EQ(a[i].rate_cap.has_value(), b[i].rate_cap.has_value());
      if (a[i].rate_cap.has_value()) {
        EXPECT_EQ(*a[i].rate_cap, *b[i].rate_cap);
      }
    }
    // Churn: drop ~1/4 of the survivors, drain the rest a little.
    std::vector<std::size_t> next;
    for (std::size_t i : alive) {
      if (rng.uniform() < 0.25) continue;
      const double frac = rng.uniform(0.5, 1.0);
      a[i].remaining *= frac;
      b[i].remaining = a[i].remaining;
      next.push_back(i);
    }
    alive.swap(next);
  }
}

TEST(DenseEquivalence, EchelonRepeatedPassesMatchSeed) {
  const topology::BuiltFabric fabric = make_fabric(0);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const PassScenario sc = make_pass_scenario(fabric, seed * 31 + 7);
    ef::EchelonMaddScheduler s(sc.registry.get());
    ref::EchelonMadd r(sc.registry.get());
    compare_repeated_passes(fabric, sc, s, r, seed);
  }
}

// Sincronia keeps its port numbering and contributor lists in arenas that
// outlive a pass; both fabrics, so ports are numbered over different link
// sets in turn.
TEST(DenseEquivalence, SincroniaRepeatedPassesMatchSeed) {
  ef::SincroniaScheduler s;
  for (int topo_kind = 0; topo_kind < 2; ++topo_kind) {
    const topology::BuiltFabric fabric = make_fabric(topo_kind);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const PassScenario sc = make_pass_scenario(fabric, seed * 31 + 7);
      ref::Sincronia r;
      compare_repeated_passes(fabric, sc, s, r, seed);
    }
  }
}

// When no unplaced group has positive bytes on the bottleneck, a group off
// that port (0 bytes) can still come first in key order and go last. Groups
// 0 and 1 have nothing left; group 2 is placed first, after which every port
// reads 0 and the lowest, egress 0, carries only group 1. The seed places
// group 0 next (first in key order among equal 0s), so group 1 is granted
// before it and takes ingress 1.
TEST(DenseEquivalence, SincroniaBottleneckWithoutPositiveBytesMatchesSeed) {
  const topology::BuiltFabric fabric = make_fabric(0);
  topology::RouteTable routes(&fabric.topo);
  struct Spec {
    int src, dst, group;
    Bytes remaining;
  };
  const Spec specs[] = {{4, 1, 0, 0.0}, {0, 1, 1, 0.0}, {0, 3, 2, 5e6}};
  std::vector<Flow> a;
  for (const Spec& sp : specs) {
    Flow f;
    f.id = FlowId{a.size()};
    f.spec.src = fabric.hosts[sp.src];
    f.spec.dst = fabric.hosts[sp.dst];
    f.spec.size = 5e6;
    f.spec.group = EchelonFlowId{static_cast<std::uint64_t>(sp.group)};
    f.remaining = sp.remaining;
    f.path = routes.path(*routes.route(f.spec.src, f.spec.dst, f.id.value()));
    a.push_back(std::move(f));
  }
  std::vector<Flow> b = a;
  std::vector<Flow*> pa, pb;
  for (Flow& f : a) pa.push_back(&f);
  for (Flow& f : b) pb.push_back(&f);
  Simulator sim(&fabric.topo);
  ef::SincroniaScheduler s;
  ref::Sincronia r;
  s.control(sim, pa);
  r.control(sim, pb);
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    ASSERT_TRUE(a[i].rate_cap.has_value());
    EXPECT_EQ(*a[i].rate_cap, *b[i].rate_cap);
  }
  EXPECT_EQ(*a[1].rate_cap, 10e9);  // group 1 first: all of ingress 1
  EXPECT_EQ(*a[0].rate_cap, 0.0);
  EXPECT_EQ(*a[2].rate_cap, 0.0);  // egress 0 went to group 1
}

// ============================================================================
// 3) Full-simulation equivalence: finish times + tardiness + makespan.
// ============================================================================

struct GroupSpec {
  int n = 0;
  int kind = 0;  // 0 coflow, 1 pipeline
  Duration T = 0.0;
};
struct FlowEvent {
  SimTime at = 0.0;
  int src = 0;
  int dst = 0;
  Bytes size = 0.0;
  int group = -1;
  int index = 0;
};
struct Workload {
  std::vector<GroupSpec> groups;
  std::vector<FlowEvent> events;
};

Workload make_workload(std::uint64_t seed, int hosts) {
  Rng rng(seed);
  Workload w;
  const int num_groups = 1 + static_cast<int>(rng.uniform_int(4));
  std::vector<int> next_index(num_groups, 0);
  for (int g = 0; g < num_groups; ++g) {
    GroupSpec gs;
    gs.n = 2 + static_cast<int>(rng.uniform_int(6));
    gs.kind = static_cast<int>(rng.uniform_int(2));
    gs.T = rng.uniform(1e-3, 10e-3);
    w.groups.push_back(gs);
  }
  const int num_flows = 6 + static_cast<int>(rng.uniform_int(25));
  for (int i = 0; i < num_flows; ++i) {
    FlowEvent e;
    e.at = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.0, 50e-3);
    e.src = static_cast<int>(rng.uniform_int(hosts));
    do {
      e.dst = static_cast<int>(rng.uniform_int(hosts));
    } while (e.dst == e.src);
    e.size = rng.uniform(1e5, 100e6);
    if (rng.uniform() < 0.75) {
      // Join a group that still has member slots (indices must stay within
      // the arrangement's cardinality).
      const int start = static_cast<int>(rng.uniform_int(w.groups.size()));
      for (int k = 0; k < num_groups; ++k) {
        const int g = (start + k) % num_groups;
        if (next_index[g] < w.groups[g].n) {
          e.group = g;
          e.index = next_index[g]++;
          break;
        }
      }
    }
    w.events.push_back(e);
  }
  return w;
}

// Result container + bitwise comparator shared via the harness
// (eqh::SimResult / eqh::expect_same_result).
using eqh::expect_same_result;
using eqh::SimResult;

// Optional churn for run_full_sim: at each of `ticks` instants `every`
// apart (from `every` on), park the lowest-FlowId active group member and
// resume it `every` later on its canonical route. `parks` counts the parks
// performed.
struct ParkSchedule {
  Duration every = 1e-3;
  int ticks = 59;
  std::size_t parks = 0;
};

template <typename MakeScheduler>
SimResult run_full_sim(int topo_kind, const Workload& w,
                       MakeScheduler make_scheduler,
                       ParkSchedule* park = nullptr) {
  const topology::BuiltFabric fabric = make_fabric(topo_kind);
  Simulator sim(&fabric.topo);
  Registry reg;
  reg.attach(sim);
  std::vector<EchelonFlowId> gids;
  for (const GroupSpec& g : w.groups) {
    gids.push_back(reg.create(
        JobId{0}, g.kind == 0 ? Arrangement::coflow(g.n)
                              : Arrangement::pipeline(g.n, g.T)));
  }
  auto sched = make_scheduler(reg);
  sim.set_scheduler(sched.get());
  for (const FlowEvent& e : w.events) {
    sim.schedule_at(e.at, [&fabric, &gids, e](Simulator& s) {
      FlowSpec spec;
      spec.src = fabric.hosts[e.src];
      spec.dst = fabric.hosts[e.dst];
      spec.size = e.size;
      if (e.group >= 0) {
        spec.group = gids[e.group];
        spec.index_in_group = e.index;
      }
      s.submit_flow(std::move(spec));
    });
  }
  for (int k = 1; park != nullptr && k <= park->ticks; ++k) {
    sim.schedule_at(k * park->every, [park](Simulator& s) {
      std::optional<FlowId> victim;
      for (const FlowId id : s.active_flows()) {
        if (s.flow(id).spec.group.valid() && (!victim || id < *victim)) {
          victim = id;
        }
      }
      if (!victim) return;
      s.park_flow(*victim);
      ++park->parks;
      s.schedule_after(park->every, [id = *victim](Simulator& s2) {
        s2.resume_flow(id, *s2.route_flow(id));
      });
    });
  }
  SimResult out;
  out.makespan = sim.run();
  for (std::size_t i = 0; i < sim.flow_count(); ++i) {
    out.finish.push_back(sim.flow(FlowId{i}).finish_time);
  }
  out.tardiness = reg.total_tardiness();
  return out;
}

TEST(DenseEquivalence, FullSimulationsMatchSeedSchedulers) {
  using SchedPtr = std::unique_ptr<netsim::NetworkScheduler>;
  using cluster::SchedulerKind;
  // Each production class, as the Stack builds it, against its seed port.
  const std::tuple<SchedulerKind, SchedPtr (*)(Registry&), const char*>
      kPairs[] = {
          {SchedulerKind::kSrpt,
           [](Registry&) -> SchedPtr { return std::make_unique<ref::Srpt>(); },
           "srpt"},
          {SchedulerKind::kCoflowMadd,
           [](Registry&) -> SchedPtr {
             return std::make_unique<ref::CoflowMadd>();
           },
           "coflow"},
          {SchedulerKind::kAalo,
           [](Registry&) -> SchedPtr { return std::make_unique<ref::Aalo>(); },
           "aalo"},
          {SchedulerKind::kSincronia,
           [](Registry&) -> SchedPtr {
             return std::make_unique<ref::Sincronia>();
           },
           "sincronia"},
          {SchedulerKind::kEchelonMadd,
           [](Registry& reg) -> SchedPtr {
             return std::make_unique<ref::EchelonMadd>(&reg);
           },
           "echelon"},
      };
  for (int topo_kind = 0; topo_kind < 2; ++topo_kind) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const Workload w = make_workload(seed * 131 + topo_kind, 16);
      const std::string tag =
          "topo " + std::to_string(topo_kind) + " seed " + std::to_string(seed);
      for (const auto& [kind, make_ref, name] : kPairs) {
        expect_same_result(
            run_full_sim(topo_kind, w,
                         [kind](Registry& reg) {
                           return cluster::make_policy(kind, &reg);
                         }),
            run_full_sim(topo_kind, w, make_ref), tag + " " + name);
      }
    }
  }
}

// Park/resume churn: a parked member leaves the active set and re-enters it
// on resume, so every pass around it regroups a changed membership.
TEST(DenseEquivalence, ParkResumeMatchesSeedEchelon) {
  using SchedPtr = std::unique_ptr<netsim::NetworkScheduler>;
  std::size_t parks = 0;
  for (int topo_kind = 0; topo_kind < 2; ++topo_kind) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const Workload w = make_workload(seed * 131 + topo_kind, 16);
      ParkSchedule pa;
      ParkSchedule pb;
      expect_same_result(
          run_full_sim(
              topo_kind, w,
              [](Registry& reg) -> SchedPtr {
                return std::make_unique<ef::EchelonMaddScheduler>(&reg);
              },
              &pa),
          run_full_sim(
              topo_kind, w,
              [](Registry& reg) -> SchedPtr {
                return std::make_unique<ref::EchelonMadd>(&reg);
              },
              &pb),
          "topo " + std::to_string(topo_kind) + " seed " +
              std::to_string(seed) + " echelon park/resume");
      EXPECT_EQ(pa.parks, pb.parks);
      parks += pa.parks;
    }
  }
  EXPECT_GT(parks, 0u);
}

// ============================================================================
// 4) Zero heap allocations in steady-state control() + allocate().
// ============================================================================

TEST(ZeroAlloc, ControlAndAllocateSteadyState) {
  const topology::BuiltFabric fabric = make_fabric(0);
  const PassScenario sc = make_pass_scenario(fabric, 42);
  Simulator sim(&fabric.topo);

  ef::EchelonMaddScheduler echelon(sc.registry.get());
  ef::CoflowMaddScheduler coflow;
  ef::AaloScheduler aalo;
  ef::SrptScheduler srpt;
  ef::SincroniaScheduler sincronia;
  netsim::NetworkScheduler* scheds[] = {&echelon, &coflow, &aalo, &srpt,
                                        &sincronia};

  for (netsim::NetworkScheduler* sched : scheds) {
    std::vector<Flow> flows = sc.flows;
    std::vector<Flow*> ptrs;
    for (Flow& f : flows) ptrs.push_back(&f);
    netsim::RateAllocator alloc(&fabric.topo);

    // Warm-up: grow every arena to its high-water mark.
    for (int i = 0; i < 3; ++i) {
      sched->control(sim, ptrs);
      alloc.allocate(ptrs);
    }

#if !ECHELON_ALLOC_HOOK
    GTEST_SKIP() << "allocation-counting hook disabled under ASan/TSan";
#endif
    eqh::alloc_count_begin();
    for (int i = 0; i < 5; ++i) {
      sched->control(sim, ptrs);
      alloc.allocate(ptrs);
    }
    const std::uint64_t n = eqh::alloc_count_end();
    EXPECT_EQ(n, 0u) << sched->name()
                     << ": steady-state pass performed heap allocations";
  }
}

// ============================================================================
// 5) Satellite: submit_flow error path + swap-and-pop order invariant.
// ============================================================================

TEST(SimulatorSatellites, SubmitFlowThrowsOnUnroutableEndpoints) {
  topology::Topology topo;
  const NodeId a = topo.add_host("a");
  const NodeId b = topo.add_host("b");  // no link between them
  Simulator sim(&topo);
  FlowSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.size = 1e6;
  EXPECT_THROW((void)sim.submit_flow(std::move(spec)), std::invalid_argument);
}

TEST(SimulatorSatellites, SwapAndPopPreservesCompletionDeterminism) {
  // Heavy churn under SRPT: staggered sizes force retirements from the
  // middle of the active set. Completion callbacks must still observe flows
  // finishing in a deterministic order, and every flow must finish.
  const topology::BuiltFabric fabric = make_fabric(0);
  Simulator sim(&fabric.topo);
  ef::SrptScheduler sched;
  sim.set_scheduler(&sched);
  std::vector<FlowId> completion_order;
  for (int i = 0; i < 24; ++i) {
    FlowSpec spec;
    spec.src = fabric.hosts[i % 16];
    spec.dst = fabric.hosts[(i + 3) % 16];
    spec.size = 1e6 * (1 + (i * 7) % 11);
    sim.submit_flow(std::move(spec),
                    [&completion_order](Simulator&, const Flow& f) {
                      completion_order.push_back(f.id);
                    });
  }
  sim.run();
  ASSERT_EQ(completion_order.size(), 24u);
  for (std::size_t i = 0; i < sim.flow_count(); ++i) {
    EXPECT_TRUE(sim.flow(FlowId{i}).finished());
  }
  // Re-running the identical workload must reproduce the identical order.
  Simulator sim2(&fabric.topo);
  ef::SrptScheduler sched2;
  sim2.set_scheduler(&sched2);
  std::vector<FlowId> completion_order2;
  for (int i = 0; i < 24; ++i) {
    FlowSpec spec;
    spec.src = fabric.hosts[i % 16];
    spec.dst = fabric.hosts[(i + 3) % 16];
    spec.size = 1e6 * (1 + (i * 7) % 11);
    sim2.submit_flow(std::move(spec),
                     [&completion_order2](Simulator&, const Flow& f) {
                       completion_order2.push_back(f.id);
                     });
  }
  sim2.run();
  EXPECT_EQ(completion_order, completion_order2);
}

}  // namespace
}  // namespace echelon
