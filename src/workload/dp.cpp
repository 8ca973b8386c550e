#include "workload/dp.hpp"

#include <cassert>

#include "collective/ps.hpp"
#include "collective/ring.hpp"

namespace echelon::workload {

namespace {

// Per-bucket totals derived from a layer partition, in *reverse layer
// order* (bucket 0 = the last layers, synchronized first -- backward runs
// from the output toward the input).
struct Bucket {
  Bytes grad_bytes = 0.0;
  double bwd_flops = 0.0;
};

std::vector<Bucket> make_buckets(const ModelSpec& model, int count) {
  const auto parts = partition_layers(model, static_cast<std::size_t>(count));
  std::vector<Bucket> out(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    Bucket& b = out[parts.size() - 1 - p];  // reverse order
    for (std::size_t l = parts[p].first; l < parts[p].second; ++l) {
      b.grad_bytes += model.layer_param_bytes(l);
      b.bwd_flops += model.layers[l].bwd_flops;
    }
  }
  return out;
}

}  // namespace

GeneratedJob generate_dp_allreduce(const DpAllReduceConfig& cfg,
                                   const Placement& placement,
                                   ef::Registry& registry, JobId job) {
  const std::size_t m = placement.size();
  assert(m >= 2);
  assert(cfg.buckets >= 1 && cfg.iterations >= 1);

  GeneratedJob out;
  out.paradigm = Paradigm::kDpAllReduce;
  out.job = job;
  out.workflow.set_job(job);
  netsim::Workflow& wf = out.workflow;

  const Duration t_fwd = cfg.gpu.compute_time(cfg.model.total_fwd_flops());
  const Duration t_opt = cfg.optimizer_fraction * t_fwd;
  const std::vector<Bucket> buckets = make_buckets(cfg.model, cfg.buckets);

  netsim::WfNodeId prev_iter_end = wf.add_barrier("start");
  for (int it = 0; it < cfg.iterations; ++it) {
    const std::string itp = "it" + std::to_string(it) + ".";

    // Forward pass on every rank.
    std::vector<netsim::WfNodeId> fwd(m);
    for (std::size_t w = 0; w < m; ++w) {
      fwd[w] = wf.add_compute(placement.workers[w], t_fwd,
                              itp + "f.w" + std::to_string(w));
      wf.add_dep(prev_iter_end, fwd[w]);
    }

    // Backward per bucket (serial chain per rank), each bucket's gradients
    // ring-all-reduced as soon as every rank produced them.
    std::vector<netsim::WfNodeId> prev_bwd = fwd;
    std::vector<netsim::WfNodeId> sync_done;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      const Duration t_bwd = cfg.gpu.compute_time(buckets[b].bwd_flops);
      std::vector<netsim::WfNodeId> bwd(m);
      for (std::size_t w = 0; w < m; ++w) {
        bwd[w] = wf.add_compute(
            placement.workers[w], t_bwd,
            itp + "b.bk" + std::to_string(b) + ".w" + std::to_string(w));
        wf.add_dep(prev_bwd[w], bwd[w]);
      }

      const EchelonFlowId ef = registry.create(
          job,
          ef::Arrangement::coflow(static_cast<int>(2 * (m - 1) * m)),
          "j" + std::to_string(job.value()) + "." + itp + "ar.bk" +
              std::to_string(b));
      out.echelonflows.push_back(ef);
      collective::FlowTag tag{.job = job,
                              .group = ef,
                              .route_hint_base = route_hint_base(job, b)};
      auto ar = collective::ring_all_reduce(
          wf, placement.hosts, buckets[b].grad_bytes, tag,
          itp + "ar.bk" + std::to_string(b));
      for (std::size_t w = 0; w < m; ++w) wf.add_dep(bwd[w], ar.start);
      sync_done.push_back(ar.done);
      prev_bwd = bwd;
    }

    // Optimizer step per rank once every bucket is synchronized.
    const netsim::WfNodeId iter_end = wf.add_barrier(itp + "end");
    for (std::size_t w = 0; w < m; ++w) {
      const netsim::WfNodeId opt = wf.add_compute(
          placement.workers[w], t_opt, itp + "opt.w" + std::to_string(w));
      wf.add_deps(sync_done, opt);
      wf.add_dep(prev_bwd[w], opt);
      wf.add_dep(opt, iter_end);
    }
    out.iteration_end.push_back(iter_end);
    prev_iter_end = iter_end;
  }

  out.description = std::string("DP-AllReduce ") + cfg.model.name + " x" +
                    std::to_string(m) + " ranks, " +
                    std::to_string(cfg.buckets) + " buckets";
  return out;
}

GeneratedJob generate_dp_ps(const DpPsConfig& cfg, const Placement& placement,
                            NodeId ps_host, WorkerId ps_worker,
                            ef::Registry& registry, JobId job) {
  const std::size_t m = placement.size();
  assert(m >= 1);
  assert(cfg.buckets >= 1 && cfg.iterations >= 1);

  GeneratedJob out;
  out.paradigm = Paradigm::kDpPs;
  out.job = job;
  out.workflow.set_job(job);
  netsim::Workflow& wf = out.workflow;

  const Duration t_fwd = cfg.gpu.compute_time(cfg.model.total_fwd_flops());
  const Duration t_opt = cfg.optimizer_fraction * t_fwd;
  const Duration t_ps_update = cfg.ps_update_fraction * t_fwd;
  const std::vector<Bucket> buckets = make_buckets(cfg.model, cfg.buckets);

  netsim::WfNodeId prev_iter_end = wf.add_barrier("start");
  for (int it = 0; it < cfg.iterations; ++it) {
    const std::string itp = "it" + std::to_string(it) + ".";

    std::vector<netsim::WfNodeId> fwd(m);
    for (std::size_t w = 0; w < m; ++w) {
      fwd[w] = wf.add_compute(placement.workers[w], t_fwd,
                              itp + "f.w" + std::to_string(w));
      wf.add_dep(prev_iter_end, fwd[w]);
    }

    std::vector<netsim::WfNodeId> prev_bwd = fwd;
    std::vector<netsim::WfNodeId> update_done;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      const Duration t_bwd = cfg.gpu.compute_time(buckets[b].bwd_flops);
      std::vector<netsim::WfNodeId> bwd(m);
      for (std::size_t w = 0; w < m; ++w) {
        bwd[w] = wf.add_compute(
            placement.workers[w], t_bwd,
            itp + "b.bk" + std::to_string(b) + ".w" + std::to_string(w));
        wf.add_dep(prev_bwd[w], bwd[w]);
      }

      // Gradient push: one Coflow per bucket (paper §4 Case I).
      const EchelonFlowId ef = registry.create(
          job, ef::Arrangement::coflow(static_cast<int>(m)),
          "j" + std::to_string(job.value()) + "." + itp + "push.bk" +
              std::to_string(b));
      out.echelonflows.push_back(ef);
      collective::FlowTag tag{.job = job,
                              .group = ef,
                              .route_hint_base = route_hint_base(job, b)};
      auto push = collective::ps_push(wf, placement.hosts, ps_host,
                                      buckets[b].grad_bytes, tag,
                                      itp + "bk" + std::to_string(b));
      for (std::size_t w = 0; w < m; ++w) wf.add_dep(bwd[w], push.start);

      const netsim::WfNodeId update = wf.add_compute(
          ps_worker, t_ps_update, itp + "psup.bk" + std::to_string(b));
      wf.add_dep(push.done, update);
      update_done.push_back(update);
      prev_bwd = bwd;
    }

    // Weight pull: one Coflow for the whole model; its completion starts the
    // next iteration (paper §4 Case I).
    const EchelonFlowId pull_ef = registry.create(
        job, ef::Arrangement::coflow(static_cast<int>(m)),
        "j" + std::to_string(job.value()) + "." + itp + "pull");
    out.echelonflows.push_back(pull_ef);
    collective::FlowTag pull_tag{
        .job = job,
        .group = pull_ef,
        .route_hint_base = route_hint_base(job, buckets.size())};
    auto pull =
        collective::ps_pull(wf, placement.hosts, ps_host,
                            cfg.model.total_param_bytes(), pull_tag, itp);
    wf.add_deps(update_done, pull.start);

    const netsim::WfNodeId iter_end = wf.add_barrier(itp + "end");
    for (std::size_t w = 0; w < m; ++w) {
      const netsim::WfNodeId opt = wf.add_compute(
          placement.workers[w], t_opt, itp + "opt.w" + std::to_string(w));
      wf.add_dep(pull.done, opt);
      wf.add_dep(opt, iter_end);
    }
    out.iteration_end.push_back(iter_end);
    prev_iter_end = iter_end;
  }

  out.description = std::string("DP-PS ") + cfg.model.name + " x" +
                    std::to_string(m) + " workers + 1 PS, " +
                    std::to_string(cfg.buckets) + " buckets";
  return out;
}

}  // namespace echelon::workload
