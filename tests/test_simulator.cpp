// Unit tests for the fluid discrete-event simulator: flow lifecycle, compute
// tasks, timers, listeners, determinism.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "netsim/event_queue.hpp"
#include "netsim/simulator.hpp"
#include "topology/builders.hpp"

namespace echelon::netsim {
namespace {

TEST(EventQueue, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(1.0, [&] { fired.push_back(11); });  // same time, later seq
  EXPECT_EQ(q.next_time(), 1.0);
  while (!q.empty()) q.pop()();
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 2}));
}

TEST(EventQueue, EmptyNextTimeIsInfinity) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

struct SimFixture : ::testing::Test {
  SimFixture() : fabric(topology::make_big_switch(4, 10.0)), sim(&fabric.topo) {}
  topology::BuiltFabric fabric;
  Simulator sim;
};

TEST_F(SimFixture, SingleFlowCompletesAtSizeOverRate) {
  const FlowId id = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 50.0});
  sim.run();
  EXPECT_NEAR(sim.flow(id).finish_time, 5.0, 1e-9);
  EXPECT_TRUE(sim.flow(id).finished());
  EXPECT_EQ(sim.active_flow_count(), 0u);
}

TEST_F(SimFixture, TwoFlowsShareThenSpeedUp) {
  // Same port pair: fair sharing until the shorter finishes, then full rate.
  const FlowId a = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0});
  const FlowId b = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 30.0});
  sim.run();
  // a: 10 bytes at 5 B/s -> t=2. b: 10 bytes by t=2, then 20 at 10 -> t=4.
  EXPECT_NEAR(sim.flow(a).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.flow(b).finish_time, 4.0, 1e-9);
}

TEST_F(SimFixture, StaggeredArrivalViaTimer) {
  std::vector<SimTime> finishes;
  sim.add_flow_listener([&finishes](Simulator& s, const Flow&) {
    finishes.push_back(s.now());
  });
  sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 40.0});
  sim.schedule_at(1.0, [this](Simulator& s) {
    s.submit_flow(FlowSpec{
        .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0});
  });
  sim.run();
  // Flow 1 alone [0,1): 10 bytes. Then shared at 5 B/s. Flow 2: 10 bytes at
  // 5 B/s -> t=3. Flow 1: 10+2*5=20 by t=3, 20 left at 10 B/s -> t=5.
  ASSERT_EQ(finishes.size(), 2u);
  EXPECT_NEAR(finishes[0], 3.0, 1e-9);
  EXPECT_NEAR(finishes[1], 5.0, 1e-9);
}

TEST_F(SimFixture, ZeroByteFlowCompletesInstantly) {
  bool done = false;
  sim.submit_flow(FlowSpec{.src = fabric.hosts[0],
                           .dst = fabric.hosts[1],
                           .size = 0.0},
                  [&done](Simulator&, const Flow& f) {
                    done = true;
                    EXPECT_EQ(f.finish_time, f.start_time);
                  });
  EXPECT_TRUE(done);  // completed synchronously inside submit_flow
}

TEST_F(SimFixture, LoopbackFlowIsInstantaneous) {
  const FlowId id = sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[0], .size = 1e9});
  sim.run();
  EXPECT_NEAR(sim.flow(id).finish_time, 0.0, 1e-9);
}

TEST_F(SimFixture, TasksRunFifoPerWorker) {
  const WorkerId w = sim.add_worker(fabric.hosts[0]);
  std::vector<std::string> order;
  sim.add_task_listener([&order](Simulator&, const ComputeTask& t) {
    order.push_back(t.label);
  });
  sim.enqueue_task(w, 1.0, "a");
  sim.enqueue_task(w, 0.1, "b");  // shorter but queued second
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
  EXPECT_NEAR(sim.worker(w).busy_time, 1.1, 1e-9);
  EXPECT_NEAR(sim.worker(w).idle_fraction(), 0.0, 1e-9);
}

TEST_F(SimFixture, WorkersRunInParallel) {
  const WorkerId w0 = sim.add_worker(fabric.hosts[0]);
  const WorkerId w1 = sim.add_worker(fabric.hosts[1]);
  TaskId t0 = sim.enqueue_task(w0, 2.0, "x");
  TaskId t1 = sim.enqueue_task(w1, 2.0, "y");
  sim.run();
  EXPECT_NEAR(sim.task(t0).finish_time, 2.0, 1e-9);
  EXPECT_NEAR(sim.task(t1).finish_time, 2.0, 1e-9);
}

TEST_F(SimFixture, WorkerIdleFractionAccountsGaps) {
  const WorkerId w = sim.add_worker(fabric.hosts[0]);
  sim.enqueue_task(w, 1.0, "a");
  sim.schedule_at(3.0, [w](Simulator& s) { s.enqueue_task(w, 1.0, "b"); });
  sim.run();
  // Busy 2 s over the span [0, 4] -> 50% idle.
  EXPECT_NEAR(sim.worker(w).idle_fraction(), 0.5, 1e-9);
}

TEST_F(SimFixture, CallbackChainsFlowAfterTask) {
  const WorkerId w = sim.add_worker(fabric.hosts[0]);
  SimTime flow_done = 0.0;
  sim.enqueue_task(w, 1.5, "produce", JobId{0},
                   [&](Simulator& s, const ComputeTask&) {
                     s.submit_flow(FlowSpec{.src = fabric.hosts[0],
                                            .dst = fabric.hosts[1],
                                            .size = 10.0},
                                   [&](Simulator& s2, const Flow&) {
                                     flow_done = s2.now();
                                   });
                   });
  sim.run();
  EXPECT_NEAR(flow_done, 2.5, 1e-9);
}

TEST_F(SimFixture, RunUntilDeadlineStopsEarly) {
  sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 100.0});
  const SimTime t = sim.run(/*deadline=*/3.0);
  EXPECT_NEAR(t, 3.0, 1e-9);
  EXPECT_EQ(sim.active_flow_count(), 1u);
  // Resume to completion.
  const SimTime end = sim.run();
  EXPECT_NEAR(end, 10.0, 1e-9);
}

TEST_F(SimFixture, DeterministicReplay) {
  // Two identical simulations produce identical event trajectories.
  auto run_once = [this]() {
    topology::BuiltFabric f2 = topology::make_big_switch(4, 10.0);
    Simulator s(&f2.topo);
    std::vector<double> finishes;
    s.add_flow_listener([&finishes](Simulator& sm, const Flow&) {
      finishes.push_back(sm.now());
    });
    for (int i = 0; i < 20; ++i) {
      s.schedule_at(i * 0.1, [&f2, i](Simulator& sm) {
        sm.submit_flow(FlowSpec{.src = f2.hosts[i % 4],
                                .dst = f2.hosts[(i + 1) % 4],
                                .size = 10.0 + i});
      });
    }
    s.run();
    return finishes;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(SimFixture, ControlInvocationsCounted) {
  sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0});
  sim.submit_flow(FlowSpec{
      .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 20.0});
  sim.run();
  // At least one pass per arrival batch and per departure.
  EXPECT_GE(sim.control_invocations(), 2u);
}

TEST(ChunkedStore, ReferencesSurviveGrowthAndAtChecksBounds) {
  constexpr std::size_t kChunk = ChunkedStore<int>::kChunk;
  ChunkedStore<int> store;
  EXPECT_THROW((void)store.at(0), std::out_of_range);
  store.push_back(7);
  const int* first = &store.at(0);
  while (store.size() < kChunk) store.push_back(static_cast<int>(store.size()));
  const int* chunk_end = &store.at(kChunk - 1);
  while (store.size() <= 3 * kChunk) {
    store.push_back(static_cast<int>(store.size()));
  }
  EXPECT_EQ(store.size(), 3 * kChunk + 1);
  EXPECT_EQ(&store.at(0), first);
  EXPECT_EQ(&store.at(kChunk - 1), chunk_end);
  EXPECT_EQ(*first, 7);
  EXPECT_EQ(*chunk_end, static_cast<int>(kChunk - 1));
  EXPECT_EQ(store.at(3 * kChunk), static_cast<int>(3 * kChunk));
  EXPECT_THROW((void)store.at(store.size()), std::out_of_range);
  const ChunkedStore<int>& cstore = store;
  EXPECT_THROW((void)cstore.at(cstore.size()), std::out_of_range);
}

TEST(ChunkedStore, FullyRetiredFullChunkIsFreedAndAtThrows) {
  constexpr std::size_t kChunk = ChunkedStore<std::string>::kChunk;
  ChunkedStore<std::string> store;
  for (std::size_t i = 0; i < kChunk; ++i) {
    store.push_back("r" + std::to_string(i));
  }
  for (std::size_t i = 0; i + 1 < kChunk; ++i) store.retire(i);
  EXPECT_TRUE(store.resident(0));
  store.retire(kChunk - 1);
  EXPECT_EQ(store.size(), kChunk);  // released indices stay counted
  for (const std::size_t i : {std::size_t{0}, kChunk / 2, kChunk - 1}) {
    EXPECT_FALSE(store.resident(i));
    EXPECT_THROW((void)store.at(i), std::out_of_range);
  }
}

TEST(ChunkedStore, PartlyFilledChunkIsNeverFreed) {
  constexpr std::size_t kChunk = ChunkedStore<int>::kChunk;
  ChunkedStore<int> store;
  for (std::size_t i = 0; i < kChunk + 10; ++i) {
    store.push_back(static_cast<int>(i));
  }
  // Every record of the partial second chunk retires; it stays resident.
  for (std::size_t i = kChunk; i < kChunk + 10; ++i) store.retire(i);
  EXPECT_TRUE(store.resident(kChunk));
  EXPECT_EQ(store.at(kChunk + 9), static_cast<int>(kChunk + 9));
  // Filling it up later releases it once its new records retire too.
  while (store.size() < 2 * kChunk) {
    store.push_back(static_cast<int>(store.size()));
  }
  for (std::size_t i = kChunk + 10; i + 1 < 2 * kChunk; ++i) store.retire(i);
  EXPECT_TRUE(store.resident(kChunk));
  store.retire(2 * kChunk - 1);
  EXPECT_FALSE(store.resident(kChunk));
  EXPECT_TRUE(store.resident(0));  // never retired
}

TEST(ChunkedStore, OneOpenRecordKeepsItsChunkResident) {
  constexpr std::size_t kChunk = ChunkedStore<int>::kChunk;
  constexpr std::size_t kOpen = 17;
  ChunkedStore<int> store;
  for (std::size_t i = 0; i < kChunk; ++i) store.push_back(static_cast<int>(i));
  const int* open = &store.at(kOpen);
  for (std::size_t i = 0; i < kChunk; ++i) {
    if (i != kOpen) store.retire(i);
  }
  EXPECT_TRUE(store.resident(0));
  EXPECT_EQ(&store.at(kOpen), open);
  EXPECT_EQ(store.at(kChunk - 1), static_cast<int>(kChunk - 1));
  store.retire(kOpen);
  EXPECT_FALSE(store.resident(kOpen));
}

TEST(ChunkedStore, PushesAfterAReleaseStillWork) {
  constexpr std::size_t kChunk = ChunkedStore<int>::kChunk;
  ChunkedStore<int> store;
  for (std::size_t i = 0; i < kChunk; ++i) store.push_back(static_cast<int>(i));
  for (std::size_t i = 0; i < kChunk; ++i) store.retire(i);
  ASSERT_FALSE(store.resident(0));
  int& next = store.push_back(-1);
  EXPECT_EQ(&store.at(kChunk), &next);
  while (store.size() < 3 * kChunk) {
    store.push_back(static_cast<int>(store.size()));
  }
  EXPECT_EQ(&store.at(kChunk), &next);  // later chunks never move it
  EXPECT_EQ(store.at(3 * kChunk - 1), static_cast<int>(3 * kChunk - 1));
  EXPECT_FALSE(store.resident(kChunk - 1));
  EXPECT_THROW((void)store.at(3 * kChunk), std::out_of_range);
}

TEST_F(SimFixture, CompletionHooksSeeTheStoredRecord) {
  // The completion callback submits enough flows to open new record chunks;
  // the record it was handed must stay the simulator's own, unmoved.
  const std::size_t burst = 2 * ChunkedStore<Flow>::kChunk;
  bool still_valid = false;
  SimTime seen_finish = kTimeInfinity;
  const FlowId id = sim.submit_flow(
      FlowSpec{.src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 10.0},
      [&](Simulator& s, const Flow& f) {
        seen_finish = f.finish_time;
        for (std::size_t i = 0; i < burst; ++i) {
          s.submit_flow(FlowSpec{
              .src = fabric.hosts[2], .dst = fabric.hosts[3], .size = 1.0});
        }
        still_valid = &s.flow(f.id) == &f && f.finished();
      });
  const ComputeTask* task_seen = nullptr;
  const WorkerId w = sim.add_worker(fabric.hosts[0]);
  const TaskId t = sim.enqueue_task(
      w, 1.0, "t", {},
      [&](Simulator&, const ComputeTask& task) { task_seen = &task; });
  SimTime heard_finish = kTimeInfinity;
  sim.add_flow_listener([&](Simulator&, const Flow& f) {
    if (f.id == id) heard_finish = f.finish_time;
  });
  sim.run();
  EXPECT_TRUE(still_valid);
  EXPECT_EQ(sim.flow_count(), burst + 1);
  // Every flow of the first chunk finished, so its records are gone; the
  // callback and the listener saw the same finish time.
  EXPECT_FALSE(sim.flow_resident(id));
  EXPECT_EQ(seen_finish, 1.0);
  EXPECT_EQ(heard_finish, seen_finish);
  EXPECT_EQ(task_seen, &sim.task(t));  // a lone task's chunk is never full
}

// More than two chunks of flows: the finished full chunks are released,
// the flow listeners see the finish time every completion callback saw,
// and the partial tail chunk stays resident.
TEST_F(SimFixture, FinishedChunksAreReleasedAndFinishTimesKept) {
  constexpr std::size_t kChunk = Simulator::kFlowChunk;
  constexpr std::size_t kFlows = 2 * kChunk + 100;
  std::vector<SimTime> seen(kFlows, -1.0);
  std::vector<SimTime> heard(kFlows, -1.0);
  sim.add_flow_listener([&heard](Simulator&, const Flow& f) {
    heard[f.id.value()] = f.finish_time;
  });
  for (std::size_t i = 0; i < kFlows; ++i) {
    // Four sizes on two disjoint host pairs: many distinct finish times.
    const std::size_t pair = i % 2;
    sim.submit_flow(
        FlowSpec{.src = fabric.hosts[2 * pair],
                 .dst = fabric.hosts[2 * pair + 1],
                 .size = 1.0 + static_cast<double>(i % 4)},
        [&seen](Simulator&, const Flow& f) {
          seen[f.id.value()] = f.finish_time;
        });
  }
  sim.run();
  for (std::size_t i = 0; i < kFlows; ++i) {
    ASSERT_GT(seen[i], 0.0) << "flow " << i;
    ASSERT_EQ(heard[i], seen[i]) << "flow " << i;
  }
  EXPECT_FALSE(sim.flow_resident(FlowId{0}));
  EXPECT_FALSE(sim.flow_resident(FlowId{2 * kChunk - 1}));
  EXPECT_THROW((void)sim.flow(FlowId{kChunk}), std::out_of_range);
  EXPECT_TRUE(sim.flow_resident(FlowId{2 * kChunk}));
  EXPECT_TRUE(sim.flow(FlowId{kFlows - 1}).finished());
  EXPECT_EQ(seen[kFlows - 1], sim.flow(FlowId{kFlows - 1}).finish_time);
}

TEST_F(SimFixture, ParkedFlowKeepsItsChunkResidentUntilAbandoned) {
  constexpr std::size_t kChunk = Simulator::kFlowChunk;
  constexpr std::size_t kParked = 5;
  SimTime parked_finish = kTimeInfinity;
  sim.add_flow_listener([&parked_finish](Simulator&, const Flow& f) {
    if (f.id == FlowId{kParked}) parked_finish = f.finish_time;
  });
  for (std::size_t i = 0; i < 2 * kChunk; ++i) {
    sim.submit_flow(FlowSpec{
        .src = fabric.hosts[0], .dst = fabric.hosts[1], .size = 1.0});
  }
  sim.park_flow(FlowId{kParked});
  sim.run();
  EXPECT_TRUE(sim.flow_resident(FlowId{0}));
  EXPECT_TRUE(sim.flow(FlowId{kParked}).parked());
  EXPECT_TRUE(sim.flow(FlowId{kChunk - 1}).finished());
  EXPECT_FALSE(sim.flow_resident(FlowId{kChunk}));  // no parked member
  EXPECT_EQ(parked_finish, kTimeInfinity);  // its listeners never fired

  sim.abandon_flow(FlowId{kParked});
  EXPECT_FALSE(sim.flow_resident(FlowId{0}));
  EXPECT_EQ(parked_finish, sim.now());
}

TEST_F(SimFixture, FinishedTaskChunksAreReleased) {
  constexpr std::size_t kChunk = ChunkedStore<ComputeTask>::kChunk;
  const WorkerId w = sim.add_worker(fabric.hosts[0]);
  for (std::size_t i = 0; i <= kChunk; ++i) sim.enqueue_task(w, 1e-3, "t");
  sim.run();
  EXPECT_THROW((void)sim.task(TaskId{0}), std::out_of_range);
  EXPECT_TRUE(sim.task(TaskId{kChunk}).finished());
}

// Flow::path views an interned route: binding it to a temporary Path, which
// would dangle, must not compile.
static_assert(
    !std::is_assignable_v<decltype((std::declval<Flow&>().path)),
                          topology::Path&&>);
static_assert(!std::is_assignable_v<topology::PathView&, topology::Path&&>);
static_assert(
    std::is_assignable_v<topology::PathView&, const topology::Path&>);

}  // namespace
}  // namespace echelon::netsim
