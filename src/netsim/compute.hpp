// GPU compute model: workers execute tasks serially in FIFO-ready order.
//
// A Worker models one dedicated, monolithic GPU (the configuration the paper
// targets, §5). Tasks are enqueued when their dependencies are met and run
// back-to-back; the gap between them is the GPU idleness ("bubble") that
// EchelonFlow scheduling aims to minimize.

#pragma once

#include <cstddef>
#include <string>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace echelon::netsim {

class Simulator;

struct ComputeTask {
  TaskId id;
  WorkerId worker;
  Duration duration = 0.0;
  std::string label;
  JobId job;

  SimTime enqueue_time = 0.0;
  SimTime start_time = kTimeInfinity;
  SimTime finish_time = kTimeInfinity;

  [[nodiscard]] bool finished() const noexcept {
    return finish_time < kTimeInfinity;
  }
};

// Holds no heap memory: its ready queue is threaded through the simulator's
// task records (DESIGN.md §6).
struct Worker {
  WorkerId id;
  NodeId host;                 // network attachment point

  // Ready tasks waiting for the GPU, oldest first: an intrusive FIFO whose
  // links live in the Simulator's task records.
  TaskId queue_head = TaskId::invalid();
  TaskId queue_tail = TaskId::invalid();
  std::size_t queued = 0;
  TaskId running = TaskId::invalid();
  // Straggler multiplier: tasks *starting* on this worker run for
  // duration * compute_scale (fault injection models a slowed GPU; paper
  // Fig. 6 recalibration). 1.0 is bitwise neutral -- d * 1.0 == d in IEEE
  // arithmetic -- so fault-free runs are unperturbed. A running task keeps
  // the scale it started with.
  double compute_scale = 1.0;
  Duration busy_time = 0.0;    // total time spent executing tasks
  SimTime first_start = kTimeInfinity;
  SimTime last_finish = 0.0;

  [[nodiscard]] bool idle() const noexcept { return !running.valid(); }

  // Fraction of [first task start, last task finish] the GPU sat idle.
  [[nodiscard]] double idle_fraction() const noexcept {
    const Duration span = last_finish - first_start;
    if (span <= 0.0) return 0.0;
    return 1.0 - busy_time / span;
  }
};

}  // namespace echelon::netsim
