#include "workload/pp.hpp"

#include <cassert>

#include "collective/p2p.hpp"

namespace echelon::workload {

namespace {

struct StageInfo {
  Duration t_fwd = 0.0;       // per micro-batch
  Duration t_bwd = 0.0;       // per micro-batch
  Bytes out_activation = 0.0; // activation bytes crossing to the next stage
};

std::vector<StageInfo> make_stages(const ModelSpec& model, const GpuSpec& gpu,
                                   std::size_t stages) {
  const auto parts = partition_layers(model, stages);
  std::vector<StageInfo> out(parts.size());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    double fwd = 0.0;
    double bwd = 0.0;
    for (std::size_t l = parts[s].first; l < parts[s].second; ++l) {
      fwd += model.layers[l].fwd_flops;
      bwd += model.layers[l].bwd_flops;
    }
    out[s].t_fwd = gpu.compute_time(fwd);
    out[s].t_bwd = gpu.compute_time(bwd);
    out[s].out_activation =
        model.layers[parts[s].second - 1].activation_bytes;
  }
  return out;
}

// Per-stage task order (the schedule): pairs of (is_backward, micro-batch).
std::vector<std::pair<bool, int>> stage_order(PipelineSchedule schedule,
                                              std::size_t stage,
                                              std::size_t stages, int M) {
  std::vector<std::pair<bool, int>> seq;
  seq.reserve(static_cast<std::size_t>(2 * M));
  if (schedule == PipelineSchedule::kGpipe) {
    // All forwards in order, then all backwards in reverse micro-batch
    // order (Fig. 1a).
    for (int i = 0; i < M; ++i) seq.emplace_back(false, i);
    for (int i = M - 1; i >= 0; --i) seq.emplace_back(true, i);
  } else {
    // 1F1B: warmup of (stages-1-stage) forwards, then steady-state
    // forward/backward alternation, then the backward drain.
    const int warmup =
        std::min(static_cast<int>(stages - 1 - stage), M);
    int nf = 0;
    int nb = 0;
    while (nf < warmup) seq.emplace_back(false, nf++);
    while (nf < M) {
      seq.emplace_back(false, nf++);
      seq.emplace_back(true, nb++);
    }
    while (nb < M) seq.emplace_back(true, nb++);
  }
  return seq;
}

}  // namespace

GeneratedJob generate_pipeline(const PipelineConfig& cfg,
                               const Placement& placement,
                               ef::Registry& registry, JobId job) {
  const std::size_t S = placement.size();
  const int M = cfg.micro_batches;
  assert(S >= 2 && M >= 1 && cfg.iterations >= 1);

  GeneratedJob out;
  out.paradigm = Paradigm::kPipeline;
  out.job = job;
  out.workflow.set_job(job);
  netsim::Workflow& wf = out.workflow;

  const std::vector<StageInfo> stages = make_stages(cfg.model, cfg.gpu, S);
  Rng jitter_rng(cfg.jitter_seed);

  netsim::WfNodeId prev_iter_end = wf.add_barrier("start");
  for (int it = 0; it < cfg.iterations; ++it) {
    const std::string itp = "it" + std::to_string(it) + ".";
    const auto um = static_cast<std::size_t>(M);

    // --- EchelonFlow declarations: one per rank pair per direction --------
    // Forward pipe s -> s+1: Eq. 6 with T = consumer's per-micro-batch
    // forward time. Backward pipe s+1 -> s: T = consumer's backward time.
    // For 1F1B the steady-state spacing on the consumer alternates one
    // forward and one backward per micro-batch, so T = t_fwd + t_bwd.
    std::vector<EchelonFlowId> fwd_ef(S - 1);
    std::vector<EchelonFlowId> bwd_ef(S - 1);
    std::vector<collective::FlowTag> fwd_tag(S - 1);
    std::vector<collective::FlowTag> bwd_tag(S - 1);
    for (std::size_t s = 0; s + 1 < S; ++s) {
      const bool onefb = cfg.schedule == PipelineSchedule::kOneFOneB;
      const Duration t_cons_f =
          onefb ? stages[s + 1].t_fwd + stages[s + 1].t_bwd
                : stages[s + 1].t_fwd;
      const Duration t_cons_b =
          onefb ? stages[s].t_fwd + stages[s].t_bwd : stages[s].t_bwd;
      fwd_ef[s] = registry.create(
          job, ef::Arrangement::pipeline(M, t_cons_f),
          "j" + std::to_string(job.value()) + "." + itp + "act.s" +
              std::to_string(s));
      bwd_ef[s] = registry.create(
          job, ef::Arrangement::pipeline(M, t_cons_b),
          "j" + std::to_string(job.value()) + "." + itp + "grad.s" +
              std::to_string(s + 1));
      out.echelonflows.push_back(fwd_ef[s]);
      out.echelonflows.push_back(bwd_ef[s]);
      fwd_tag[s] = collective::FlowTag{
          .job = job, .group = fwd_ef[s],
          .route_hint_base = route_hint_base(job, 2 * s)};
      bwd_tag[s] = collective::FlowTag{
          .job = job, .group = bwd_ef[s],
          .route_hint_base = route_hint_base(job, 2 * s + 1)};
    }

    // --- nodes -------------------------------------------------------------
    std::vector<std::vector<netsim::WfNodeId>> F(S), B(S);
    std::vector<std::vector<netsim::WfNodeId>> A(S), G(S);  // flow *done* ids
    for (std::size_t s = 0; s < S; ++s) {
      F[s].resize(um);
      B[s].resize(um);
      A[s].resize(um);
      G[s].resize(um);
      for (int i = 0; i < M; ++i) {
        F[s][static_cast<std::size_t>(i)] = wf.add_compute(
            placement.workers[s],
            apply_jitter(stages[s].t_fwd, cfg.compute_jitter, &jitter_rng),
            itp + "f.s" + std::to_string(s) + ".mb" + std::to_string(i));
        B[s][static_cast<std::size_t>(i)] = wf.add_compute(
            placement.workers[s],
            apply_jitter(stages[s].t_bwd, cfg.compute_jitter, &jitter_rng),
            itp + "b.s" + std::to_string(s) + ".mb" + std::to_string(i));
      }
    }

    // Activation flows (emitted in micro-batch order so EchelonFlow indices
    // follow the arrangement) and gradient flows.
    for (std::size_t s = 0; s + 1 < S; ++s) {
      for (int i = 0; i < M; ++i) {
        auto act = collective::p2p(
            wf, placement.hosts[s], placement.hosts[s + 1],
            stages[s].out_activation, fwd_tag[s],
            itp + "act.s" + std::to_string(s) + ".mb" + std::to_string(i));
        wf.add_dep(F[s][static_cast<std::size_t>(i)], act.start);
        A[s][static_cast<std::size_t>(i)] = act.done;
      }
    }
    // Backward gradient flows: micro-batch emission order mirrors the
    // schedule's backward order (reverse for GPipe, in-order for 1F1B).
    for (std::size_t s = S - 1; s >= 1; --s) {
      const bool reverse = cfg.schedule == PipelineSchedule::kGpipe;
      for (int k = 0; k < M; ++k) {
        const int i = reverse ? M - 1 - k : k;
        auto grad = collective::p2p(
            wf, placement.hosts[s], placement.hosts[s - 1],
            stages[s - 1].out_activation, bwd_tag[s - 1],
            itp + "grad.s" + std::to_string(s) + ".mb" + std::to_string(i));
        wf.add_dep(B[s][static_cast<std::size_t>(i)], grad.start);
        G[s][static_cast<std::size_t>(i)] = grad.done;
      }
    }

    // --- data dependencies ---------------------------------------------------
    for (std::size_t s = 0; s < S; ++s) {
      for (int i = 0; i < M; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        if (s == 0) {
          wf.add_dep(prev_iter_end, F[s][ui]);
        } else {
          wf.add_dep(A[s - 1][ui], F[s][ui]);
        }
        if (s == S - 1) {
          wf.add_dep(F[s][ui], B[s][ui]);  // loss -> backward
        } else {
          wf.add_dep(G[s + 1][ui], B[s][ui]);
        }
      }
    }

    // --- schedule (serial order per GPU) -------------------------------------
    // The per-worker FIFO already serializes tasks, but the *order* must be
    // the paradigm's schedule, not data-arrival order; chain consecutive
    // schedule entries explicitly.
    for (std::size_t s = 0; s < S; ++s) {
      const auto seq = stage_order(cfg.schedule, s, S, M);
      for (std::size_t k = 1; k < seq.size(); ++k) {
        const auto [pb, pi] = seq[k - 1];
        const auto [cb, ci] = seq[k];
        const netsim::WfNodeId prev =
            pb ? B[s][static_cast<std::size_t>(pi)]
               : F[s][static_cast<std::size_t>(pi)];
        const netsim::WfNodeId cur =
            cb ? B[s][static_cast<std::size_t>(ci)]
               : F[s][static_cast<std::size_t>(ci)];
        wf.add_dep(prev, cur);
      }
    }

    // --- iteration end: optimizer per stage after its last backward ----------
    const netsim::WfNodeId iter_end = wf.add_barrier(itp + "end");
    for (std::size_t s = 0; s < S; ++s) {
      const netsim::WfNodeId opt = wf.add_compute(
          placement.workers[s],
          cfg.optimizer_fraction * stages[s].t_fwd * M,
          itp + "opt.s" + std::to_string(s));
      for (int i = 0; i < M; ++i) {
        wf.add_dep(B[s][static_cast<std::size_t>(i)], opt);
      }
      wf.add_dep(opt, iter_end);
    }
    out.iteration_end.push_back(iter_end);
    prev_iter_end = iter_end;
  }

  out.description =
      std::string(cfg.schedule == PipelineSchedule::kGpipe ? "PP-GPipe "
                                                           : "PP-1F1B ") +
      cfg.model.name + " x" + std::to_string(S) + " stages, " +
      std::to_string(M) + " micro-batches";
  return out;
}

}  // namespace echelon::workload
