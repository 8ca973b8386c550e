// Unit tests for arrangement functions (Eqs. 5, 6, 7) and the EchelonFlow /
// Registry runtime objects (Definitions 3.1-3.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "echelon/arrangement.hpp"
#include "echelon/echelonflow.hpp"
#include "echelon/registry.hpp"

namespace echelon::ef {
namespace {

TEST(Arrangement, CoflowAllOffsetsZero) {
  const Arrangement a = Arrangement::coflow(4);
  EXPECT_EQ(a.size(), 4);
  for (int j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(a.offset(j), 0.0);
  EXPECT_TRUE(a.is_coflow_compliant());
  EXPECT_EQ(a.describe(), "same flow finish time");
}

TEST(Arrangement, PipelineStaggersByT) {
  const Arrangement a = Arrangement::pipeline(3, 1.5);
  EXPECT_DOUBLE_EQ(a.offset(0), 0.0);
  EXPECT_DOUBLE_EQ(a.offset(1), 1.5);
  EXPECT_DOUBLE_EQ(a.offset(2), 3.0);
  EXPECT_FALSE(a.is_coflow_compliant());
  EXPECT_EQ(a.describe(), "staggered flow finish time");
}

TEST(Arrangement, FsdpEq7Shape) {
  // n=3 layers, 2 flows per stage, T_fwd=1, T_bwd=2.
  const Arrangement a = Arrangement::fsdp(3, 2, 1.0, 2.0);
  EXPECT_EQ(a.size(), 12);  // 2n stages x 2 flows
  // Stage offsets: C0=0, C1=1, C2=2 (fwd, +T_fwd each); C3=4, C4=6, C5=8
  // (bwd, +T_bwd each).
  const double expected[] = {0, 0, 1, 1, 2, 2, 4, 4, 6, 6, 8, 8};
  for (int j = 0; j < 12; ++j) EXPECT_DOUBLE_EQ(a.offset(j), expected[j]);
  EXPECT_FALSE(a.is_coflow_compliant());
  EXPECT_EQ(a.describe(), "staggered Coflow finish time");
}

TEST(Arrangement, StagedBuilder) {
  const Arrangement a = Arrangement::staged({2, 3}, {0.0, 5.0});
  EXPECT_EQ(a.size(), 5);
  EXPECT_DOUBLE_EQ(a.offset(1), 0.0);
  EXPECT_DOUBLE_EQ(a.offset(2), 5.0);
  EXPECT_DOUBLE_EQ(a.offset(4), 5.0);
}

TEST(Arrangement, EmptyIsCompliant) {
  EXPECT_TRUE(Arrangement::coflow(0).is_coflow_compliant());
}

TEST(EchelonFlow, ReferenceTimeFixedByHeadFlow) {
  EchelonFlow h(EchelonFlowId{0}, JobId{0}, Arrangement::pipeline(3, 2.0));
  EXPECT_FALSE(h.reference_known());
  EXPECT_EQ(h.ideal_finish(1), std::nullopt);

  h.note_start(0, FlowId{10}, 4.0, /*now=*/5.0);
  ASSERT_TRUE(h.reference_known());
  EXPECT_DOUBLE_EQ(*h.reference_time(), 5.0);
  EXPECT_DOUBLE_EQ(*h.ideal_finish(0), 5.0);   // d_0 = r = s_0
  EXPECT_DOUBLE_EQ(*h.ideal_finish(1), 7.0);   // + T
  EXPECT_DOUBLE_EQ(*h.ideal_finish(2), 9.0);
}

TEST(EchelonFlow, LateFlowsKeepIdealFinishFromReference) {
  // Fig. 6: flows that start late still get d_j derived from r, which may
  // precede their own start time.
  EchelonFlow h(EchelonFlowId{0}, JobId{0}, Arrangement::pipeline(2, 1.0));
  h.note_start(0, FlowId{1}, 1.0, 0.0);
  h.note_start(1, FlowId{2}, 1.0, /*now=*/10.0);  // very late
  EXPECT_DOUBLE_EQ(*h.ideal_finish(1), 1.0);      // r + T, not start-based
}

TEST(EchelonFlow, NonHeadFirstStarterAnchorsReference) {
  // If (unusually) member 1 starts first, r is derived so that member 1's
  // ideal finish equals its start.
  EchelonFlow h(EchelonFlowId{0}, JobId{0}, Arrangement::pipeline(2, 3.0));
  h.note_start(1, FlowId{2}, 1.0, /*now=*/10.0);
  EXPECT_DOUBLE_EQ(*h.reference_time(), 7.0);
  EXPECT_DOUBLE_EQ(*h.ideal_finish(1), 10.0);
  EXPECT_DOUBLE_EQ(*h.ideal_finish(0), 7.0);
}

TEST(EchelonFlow, TardinessIsMaxOverMembers) {
  EchelonFlow h(EchelonFlowId{0}, JobId{0}, Arrangement::pipeline(2, 1.0));
  h.note_start(0, FlowId{1}, 1.0, 0.0);  // d_0 = 0
  h.note_start(1, FlowId{2}, 1.0, 0.5);  // d_1 = 1
  h.note_finish(0, 2.0);                 // tardiness 2
  EXPECT_DOUBLE_EQ(h.tardiness(), 2.0);
  EXPECT_FALSE(h.complete());
  h.note_finish(1, 2.5);                 // tardiness 1.5 -> max stays 2
  EXPECT_TRUE(h.complete());
  EXPECT_DOUBLE_EQ(h.tardiness(), 2.0);
  EXPECT_DOUBLE_EQ(*h.flow_tardiness(1), 1.5);
}

TEST(EchelonFlow, CoflowCompletionTimeMetric) {
  EchelonFlow h(EchelonFlowId{0}, JobId{0}, Arrangement::coflow(2));
  h.note_start(0, FlowId{1}, 1.0, 1.0);
  h.note_start(1, FlowId{2}, 1.0, 1.0);
  h.note_finish(0, 3.0);
  h.note_finish(1, 4.0);
  ASSERT_TRUE(h.coflow_completion_time().has_value());
  EXPECT_DOUBLE_EQ(*h.coflow_completion_time(), 3.0);  // last finish - r
  // For a Coflow arrangement, tardiness == CCT (Property 2's metric map).
  EXPECT_DOUBLE_EQ(h.tardiness(), 3.0);
}

TEST(EchelonFlow, SetArrangementBeforeStartOnly) {
  EchelonFlow h(EchelonFlowId{0}, JobId{0}, Arrangement::coflow(2));
  h.set_arrangement(Arrangement::pipeline(2, 1.0));
  EXPECT_FALSE(h.arrangement().is_coflow_compliant());
}

TEST(EchelonFlow, RetireBeforeCompleteThrows) {
  EchelonFlow h(EchelonFlowId{0}, JobId{0}, Arrangement::pipeline(2, 1.0));
  h.note_start(0, FlowId{1}, 1.0, 0.0);
  h.note_start(1, FlowId{2}, 1.0, 0.5);
  h.note_finish(0, 2.0);
  EXPECT_THROW(h.retire(), std::logic_error);
  EXPECT_FALSE(h.retired());
  EXPECT_EQ(h.members().size(), 2u);
}

TEST(EchelonFlow, RetireKeepsScalarsAndFreesMembers) {
  EchelonFlow h(EchelonFlowId{3}, JobId{7}, Arrangement::pipeline(3, 1.0),
                "grp", 2.5);
  h.note_start(1, FlowId{1}, 1.0, 0.5);  // head: r = 0.5 - 1 = -0.5
  h.note_start(0, FlowId{2}, 1.0, 0.75);
  h.note_start(2, FlowId{3}, 1.0, 1.0);
  h.note_finish(2, 2.0);
  h.note_finish(0, 3.0);
  h.note_finish(1, 1.25);
  ASSERT_TRUE(h.complete());
  const Duration tardiness = h.tardiness();
  const Duration cct = *h.coflow_completion_time();
  EXPECT_DOUBLE_EQ(cct, 3.5);  // last finish 3.0 - r

  h.retire();
  EXPECT_TRUE(h.retired());
  EXPECT_TRUE(h.complete());
  EXPECT_EQ(h.id(), EchelonFlowId{3});
  EXPECT_EQ(h.job(), JobId{7});
  EXPECT_EQ(h.cardinality(), 3);
  EXPECT_EQ(h.started_count(), 3);
  EXPECT_EQ(h.finished_count(), 3);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(h.weight()),
            std::bit_cast<std::uint64_t>(2.5));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(h.tardiness()),
            std::bit_cast<std::uint64_t>(tardiness));
  ASSERT_TRUE(h.coflow_completion_time().has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*h.coflow_completion_time()),
            std::bit_cast<std::uint64_t>(cct));
  EXPECT_DOUBLE_EQ(*h.reference_time(), -0.5);
  EXPECT_TRUE(h.members().empty());
  EXPECT_TRUE(h.label().empty());
  EXPECT_EQ(h.arrangement().size(), 0);
  EXPECT_THROW((void)h.ideal_finish(0), std::out_of_range);
  EXPECT_THROW((void)h.flow_tardiness(0), std::out_of_range);
  EXPECT_THROW((void)h.arrangement().offset(0), std::out_of_range);
}

TEST(Registry, CreateAssignsSequentialIds) {
  Registry reg;
  const EchelonFlowId a = reg.create(JobId{0}, Arrangement::coflow(1));
  const EchelonFlowId b = reg.create(JobId{0}, Arrangement::coflow(1));
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains(a));
  EXPECT_FALSE(reg.contains(EchelonFlowId{5}));
  EXPECT_FALSE(reg.contains(EchelonFlowId::invalid()));
}

TEST(Registry, TotalTardinessSumsCompleteEchelonFlows) {
  Registry reg;
  const EchelonFlowId a = reg.create(JobId{0}, Arrangement::coflow(1), "", 1.0);
  const EchelonFlowId b =
      reg.create(JobId{0}, Arrangement::coflow(1), "", 3.0);
  netsim::Flow fa;
  fa.spec.group = a;
  fa.spec.index_in_group = 0;
  fa.id = FlowId{0};
  reg.note_arrival(fa, 0.0);
  reg.note_departure(fa, 2.0);
  EXPECT_DOUBLE_EQ(reg.total_tardiness(), 2.0);

  netsim::Flow fb;
  fb.spec.group = b;
  fb.spec.index_in_group = 0;
  fb.id = FlowId{1};
  reg.note_arrival(fb, 1.0);
  reg.note_departure(fb, 2.0);
  EXPECT_DOUBLE_EQ(reg.total_tardiness(), 3.0);           // Eq. 4
  EXPECT_DOUBLE_EQ(reg.weighted_total_tardiness(), 5.0);  // weights 1 and 3
}

// total_tardiness() keeps a running sum over the complete prefix; it must
// add the same terms in the same order as a scan from the first
// EchelonFlow, so both sums match that scan bit for bit after every
// completion, whatever the completion order, with one EchelonFlow that
// never completes and with retired ones mixed in.
TEST(Registry, TotalTardinessMatchesCreationOrderScanBitForBit) {
  Rng rng(29);
  Registry reg;
  constexpr int kGroups = 64;
  std::uint64_t next_flow = 0;
  std::vector<int> pending;  // group ids with members still to finish
  for (int g = 0; g < kGroups; ++g) {
    const int n = 1 + static_cast<int>(rng.uniform_int(3));
    const EchelonFlowId id = reg.create(JobId{0}, Arrangement::pipeline(n, 0.1),
                                        "", rng.uniform(0.1, 3.0));
    // Start every member at a scale-varied instant, so the sum's rounding
    // depends on its order.
    const double at = rng.uniform() * std::pow(10.0, rng.uniform(-3.0, 3.0));
    for (int j = 0; j < n; ++j) {
      reg.get(id).note_start(j, FlowId{next_flow++}, 1.0, at);
      pending.push_back(g);
    }
  }
  // Group 5 keeps one member running to the end.
  pending.erase(std::find(pending.begin(), pending.end(), 5));

  // The scans total_tardiness() replaced.
  const auto naive = [&reg] {
    Duration sum = 0.0;
    for (const EchelonFlow* h : reg.all()) {
      if (h->complete()) sum += h->tardiness();
    }
    return sum;
  };
  const auto naive_weighted = [&reg] {
    Duration sum = 0.0;
    for (const EchelonFlow* h : reg.all()) {
      if (h->complete()) sum += h->weight() * h->tardiness();
    }
    return sum;
  };
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  double now = 1e3;
  while (!pending.empty()) {
    const std::size_t k = rng.uniform_int(pending.size());
    EchelonFlow& h = reg.get(EchelonFlowId{static_cast<std::uint64_t>(
        pending[k])});
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
    now += rng.uniform(0.0, 7.0);
    h.note_finish(h.finished_count(), now);
    if (h.complete() && rng.uniform() < 0.5) h.retire();
    ASSERT_EQ(bits(reg.total_tardiness()), bits(naive()));
    ASSERT_EQ(bits(reg.weighted_total_tardiness()), bits(naive_weighted()));
  }
  EXPECT_FALSE(reg.get(EchelonFlowId{5}).complete());
  EXPECT_NE(reg.total_tardiness(), 0.0);
}

TEST(Registry, IgnoresUngroupedFlows) {
  Registry reg;
  netsim::Flow f;
  f.id = FlowId{0};
  reg.note_arrival(f, 0.0);   // no group: must not crash or register
  reg.note_departure(f, 1.0);
  EXPECT_DOUBLE_EQ(reg.total_tardiness(), 0.0);
}

}  // namespace
}  // namespace echelon::ef
