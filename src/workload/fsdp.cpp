#include "workload/fsdp.hpp"

#include <cassert>

#include "collective/ring.hpp"

namespace echelon::workload {

GeneratedJob generate_fsdp(const FsdpConfig& cfg, const Placement& placement,
                           ef::Registry& registry, JobId job) {
  const std::size_t m = placement.size();
  const std::size_t L = cfg.model.layer_count();
  assert(m >= 2 && L >= 1 && cfg.iterations >= 1);

  GeneratedJob out;
  out.paradigm = Paradigm::kFsdp;
  out.job = job;
  out.workflow.set_job(job);
  netsim::Workflow& wf = out.workflow;

  // Per-layer compute times (each rank runs the *full* layer on its local
  // batch; only parameters are sharded).
  std::vector<Duration> t_f(L), t_b(L);
  for (std::size_t l = 0; l < L; ++l) {
    t_f[l] = cfg.gpu.compute_time(cfg.model.layers[l].fwd_flops);
    t_b[l] = cfg.gpu.compute_time(cfg.model.layers[l].bwd_flops);
  }

  // Eq. 7 arrangement, generalized to non-uniform layers: stage i < L is the
  // forward all-gather of layer i (ideal finish = when F_i could start on an
  // infinitely fast network); stage L + j is the backward all-gather of
  // layer L-1-j. Each stage holds the m*(m-1) flows of one ring all-gather.
  const int flows_per_stage = static_cast<int>((m - 1) * m);
  std::vector<int> stage_sizes(2 * L, flows_per_stage);
  std::vector<Duration> stage_offsets(2 * L, 0.0);
  {
    Duration acc = 0.0;
    for (std::size_t i = 0; i < L; ++i) {
      stage_offsets[i] = acc;
      acc += t_f[i];
    }
    stage_offsets[L] = acc;  // AG'_{L-1}: ideal finish when F_{L-1} is done
    for (std::size_t j = 1; j < L; ++j) {
      acc += t_b[L - j];
      stage_offsets[L + j] = acc;
    }
  }

  Rng jitter_rng(cfg.jitter_seed);

  netsim::WfNodeId prev_iter_end = wf.add_barrier("start");
  for (int it = 0; it < cfg.iterations; ++it) {
    const std::string itp = "it" + std::to_string(it) + ".";

    const EchelonFlowId ag_ef = registry.create(
        job, ef::Arrangement::staged(stage_sizes, stage_offsets),
        "j" + std::to_string(job.value()) + "." + itp + "ag");
    out.echelonflows.push_back(ag_ef);
    collective::FlowTag ag_tag{.job = job,
                               .group = ag_ef,
                               .route_hint_base = route_hint_base(job, 0)};

    // Forward: all-gathers released at iteration start (stage i), each
    // gating its layer's compute.
    std::vector<netsim::WfNodeId> prev_f(m, prev_iter_end);
    std::vector<std::vector<netsim::WfNodeId>> F(
        L, std::vector<netsim::WfNodeId>(m));
    for (std::size_t l = 0; l < L; ++l) {
      auto ag = collective::ring_all_gather(
          wf, placement.hosts, cfg.model.layer_param_bytes(l), ag_tag,
          itp + "ag.l" + std::to_string(l));
      wf.add_dep(prev_iter_end, ag.start);
      for (std::size_t w = 0; w < m; ++w) {
        F[l][w] = wf.add_compute(
            placement.workers[w],
            apply_jitter(t_f[l], cfg.compute_jitter, &jitter_rng),
            itp + "f.l" + std::to_string(l) + ".w" + std::to_string(w));
        wf.add_dep(ag.done, F[l][w]);
        wf.add_dep(prev_f[w], F[l][w]);
        prev_f[w] = F[l][w];
      }
    }

    // Backward phase entry: all ranks finished the last forward layer.
    const netsim::WfNodeId bwd_start = wf.add_barrier(itp + "bwd.start");
    for (std::size_t w = 0; w < m; ++w) wf.add_dep(prev_f[w], bwd_start);

    // Backward: all-gathers re-assemble each layer's weights (released at
    // backward start, stage L..2L-1 of the same EchelonFlow); after each
    // layer's backward, a reduce-scatter Coflow ships gradient shards.
    std::vector<netsim::WfNodeId> prev_b(m, bwd_start);
    std::vector<netsim::WfNodeId> rs_done;
    for (std::size_t li = L; li-- > 0;) {
      auto ag = collective::ring_all_gather(
          wf, placement.hosts, cfg.model.layer_param_bytes(li), ag_tag,
          itp + "ag'.l" + std::to_string(li));
      wf.add_dep(bwd_start, ag.start);

      std::vector<netsim::WfNodeId> bwd(m);
      for (std::size_t w = 0; w < m; ++w) {
        bwd[w] = wf.add_compute(
            placement.workers[w],
            apply_jitter(t_b[li], cfg.compute_jitter, &jitter_rng),
            itp + "b.l" + std::to_string(li) + ".w" + std::to_string(w));
        wf.add_dep(ag.done, bwd[w]);
        wf.add_dep(prev_b[w], bwd[w]);
        prev_b[w] = bwd[w];
      }

      const EchelonFlowId rs_ef = registry.create(
          job, ef::Arrangement::coflow(flows_per_stage),
          "j" + std::to_string(job.value()) + "." + itp + "rs.l" +
              std::to_string(li));
      out.echelonflows.push_back(rs_ef);
      collective::FlowTag rs_tag{
          .job = job,
          .group = rs_ef,
          .route_hint_base = route_hint_base(job, 1 + li)};
      auto rs = collective::ring_reduce_scatter(
          wf, placement.hosts, cfg.model.layer_param_bytes(li), rs_tag,
          itp + "rs.l" + std::to_string(li));
      for (std::size_t w = 0; w < m; ++w) wf.add_dep(bwd[w], rs.start);
      rs_done.push_back(rs.done);
    }

    const netsim::WfNodeId iter_end = wf.add_barrier(itp + "end");
    const Duration t_opt =
        cfg.optimizer_fraction *
        cfg.gpu.compute_time(cfg.model.total_fwd_flops()) /
        static_cast<double>(m);  // optimizer touches only the local shard
    for (std::size_t w = 0; w < m; ++w) {
      const netsim::WfNodeId opt = wf.add_compute(
          placement.workers[w], t_opt, itp + "opt.w" + std::to_string(w));
      wf.add_deps(rs_done, opt);
      wf.add_dep(prev_b[w], opt);
      wf.add_dep(opt, iter_end);
    }
    out.iteration_end.push_back(iter_end);
    prev_iter_end = iter_end;
  }

  out.description = std::string("FSDP ") + cfg.model.name + " x" +
                    std::to_string(m) + " ranks, " + std::to_string(L) +
                    " layers";
  return out;
}

}  // namespace echelon::workload
