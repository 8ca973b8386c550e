#include "workload/ep.hpp"

#include <cassert>

#include "collective/p2p.hpp"

namespace echelon::workload {

GeneratedJob generate_expert(const ExpertConfig& cfg,
                             const Placement& placement,
                             ef::Registry& registry, JobId job) {
  const std::size_t m = placement.size();
  const std::size_t L = cfg.model.layer_count();
  assert(m >= 2 && L >= 1 && cfg.iterations >= 1);

  GeneratedJob out;
  out.paradigm = Paradigm::kExpert;
  out.job = job;
  out.workflow.set_job(job);
  netsim::Workflow& wf = out.workflow;

  const int a2a_flows = static_cast<int>(m * (m - 1));

  netsim::WfNodeId prev_iter_end = wf.add_barrier("start");
  for (int it = 0; it < cfg.iterations; ++it) {
    const std::string itp = "it" + std::to_string(it) + ".";
    std::uint64_t ef_ord = 0;

    // Helper: one all-to-all Coflow-EchelonFlow gated by every rank's
    // predecessor computation, followed by a per-rank compute.
    std::vector<netsim::WfNodeId> prev_done(m, prev_iter_end);
    auto phase = [&](const std::string& name, Bytes total_bytes,
                     Duration compute) {
      const EchelonFlowId ef = registry.create(
          job, ef::Arrangement::coflow(a2a_flows),
          "j" + std::to_string(job.value()) + "." + itp + name);
      out.echelonflows.push_back(ef);
      collective::FlowTag tag{
          .job = job,
          .group = ef,
          .route_hint_base = route_hint_base(job, ef_ord++)};
      // Tokens split evenly across experts: bytes per ordered pair.
      auto a2a = collective::all_to_all(
          wf, placement.hosts, total_bytes / static_cast<double>(m * m), tag,
          itp + name);
      for (std::size_t w = 0; w < m; ++w) {
        wf.add_dep(prev_done[w], a2a.start);
      }
      for (std::size_t w = 0; w < m; ++w) {
        const netsim::WfNodeId c = wf.add_compute(
            placement.workers[w], compute,
            itp + name + ".c.w" + std::to_string(w));
        wf.add_dep(a2a.done, c);
        prev_done[w] = c;
      }
    };

    // Forward: per layer, dispatch all-to-all -> expert FFN -> combine
    // all-to-all -> (next layer's attention, folded into the FFN time).
    for (std::size_t l = 0; l < L; ++l) {
      const LayerSpec& layer = cfg.model.layers[l];
      const Bytes routed = cfg.routed_fraction * layer.activation_bytes *
                           static_cast<double>(m);  // all ranks' tokens
      const Duration t_expert =
          cfg.gpu.compute_time(layer.fwd_flops);  // expert FFN per rank
      phase("dispatch.l" + std::to_string(l), routed, t_expert);
      phase("combine.l" + std::to_string(l), routed,
            cfg.gpu.compute_time(layer.fwd_flops * 0.1));
    }
    // Backward: mirror in reverse layer order with bwd FLOPs.
    for (std::size_t li = L; li-- > 0;) {
      const LayerSpec& layer = cfg.model.layers[li];
      const Bytes routed = cfg.routed_fraction * layer.activation_bytes *
                           static_cast<double>(m);
      phase("bwd_dispatch.l" + std::to_string(li), routed,
            cfg.gpu.compute_time(layer.bwd_flops));
      phase("bwd_combine.l" + std::to_string(li), routed,
            cfg.gpu.compute_time(layer.bwd_flops * 0.1));
    }

    const netsim::WfNodeId iter_end = wf.add_barrier(itp + "end");
    const Duration t_opt = cfg.optimizer_fraction *
                           cfg.gpu.compute_time(cfg.model.total_fwd_flops());
    for (std::size_t w = 0; w < m; ++w) {
      const netsim::WfNodeId opt = wf.add_compute(
          placement.workers[w], t_opt, itp + "opt.w" + std::to_string(w));
      wf.add_dep(prev_done[w], opt);
      wf.add_dep(opt, iter_end);
    }
    out.iteration_end.push_back(iter_end);
    prev_iter_end = iter_end;
  }

  out.description = std::string("EP-MoE ") + cfg.model.name + " x" +
                    std::to_string(m) + " experts, " + std::to_string(L) +
                    " layers";
  return out;
}

}  // namespace echelon::workload
