#include "workload/tp.hpp"

#include <cassert>

#include "collective/ring.hpp"

namespace echelon::workload {

GeneratedJob generate_tensor(const TensorConfig& cfg,
                             const Placement& placement,
                             ef::Registry& registry, JobId job) {
  const std::size_t m = placement.size();
  const std::size_t L = cfg.model.layer_count();
  assert(m >= 2 && L >= 1 && cfg.iterations >= 1);

  GeneratedJob out;
  out.paradigm = Paradigm::kTensor;
  out.job = job;
  out.workflow.set_job(job);
  netsim::Workflow& wf = out.workflow;

  const double shard = 1.0 / static_cast<double>(m);
  const int ring_flows = static_cast<int>(2 * (m - 1) * m);

  netsim::WfNodeId prev_iter_end = wf.add_barrier("start");
  for (int it = 0; it < cfg.iterations; ++it) {
    const std::string itp = "it" + std::to_string(it) + ".";
    std::uint64_t ef_ord = 0;

    // Forward: per layer, sharded compute on every rank, then an activation
    // all-reduce gating the next layer.
    std::vector<netsim::WfNodeId> prev_done(m, prev_iter_end);
    for (std::size_t l = 0; l < L; ++l) {
      const LayerSpec& layer = cfg.model.layers[l];
      const Duration t = cfg.gpu.compute_time(layer.fwd_flops * shard);
      const EchelonFlowId ef = registry.create(
          job, ef::Arrangement::coflow(ring_flows),
          "j" + std::to_string(job.value()) + "." + itp + "as.l" +
              std::to_string(l));
      out.echelonflows.push_back(ef);
      collective::FlowTag tag{
          .job = job,
          .group = ef,
          .route_hint_base = route_hint_base(job, ef_ord++)};
      auto ar = collective::ring_all_reduce(wf, placement.hosts,
                                            layer.activation_bytes, tag,
                                            itp + "as.l" + std::to_string(l));
      for (std::size_t w = 0; w < m; ++w) {
        const netsim::WfNodeId f = wf.add_compute(
            placement.workers[w], t,
            itp + "f.l" + std::to_string(l) + ".w" + std::to_string(w));
        wf.add_dep(prev_done[w], f);
        wf.add_dep(f, ar.start);
        prev_done[w] = ar.done;  // next layer waits for the all-reduce
      }
    }

    // Backward: reverse layer order, gradient all-reduce per layer.
    for (std::size_t li = L; li-- > 0;) {
      const LayerSpec& layer = cfg.model.layers[li];
      const Duration t = cfg.gpu.compute_time(layer.bwd_flops * shard);
      const EchelonFlowId ef = registry.create(
          job, ef::Arrangement::coflow(ring_flows),
          "j" + std::to_string(job.value()) + "." + itp + "gs.l" +
              std::to_string(li));
      out.echelonflows.push_back(ef);
      collective::FlowTag tag{
          .job = job,
          .group = ef,
          .route_hint_base = route_hint_base(job, ef_ord++)};
      auto ar = collective::ring_all_reduce(wf, placement.hosts,
                                            layer.activation_bytes, tag,
                                            itp + "gs.l" + std::to_string(li));
      for (std::size_t w = 0; w < m; ++w) {
        const netsim::WfNodeId b = wf.add_compute(
            placement.workers[w], t,
            itp + "b.l" + std::to_string(li) + ".w" + std::to_string(w));
        wf.add_dep(prev_done[w], b);
        wf.add_dep(b, ar.start);
        prev_done[w] = ar.done;
      }
    }

    const netsim::WfNodeId iter_end = wf.add_barrier(itp + "end");
    const Duration t_opt = cfg.optimizer_fraction *
                           cfg.gpu.compute_time(cfg.model.total_fwd_flops()) *
                           shard;
    for (std::size_t w = 0; w < m; ++w) {
      const netsim::WfNodeId opt = wf.add_compute(
          placement.workers[w], t_opt, itp + "opt.w" + std::to_string(w));
      wf.add_dep(prev_done[w], opt);
      wf.add_dep(opt, iter_end);
    }
    out.iteration_end.push_back(iter_end);
    prev_iter_end = iter_end;
  }

  out.description = std::string("TP ") + cfg.model.name + " x" +
                    std::to_string(m) + " ranks, " + std::to_string(L) +
                    " layers";
  return out;
}

}  // namespace echelon::workload
