#include "meta/selector.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "sched/shadow.hpp"

namespace rtp {

Site::Site(std::string name, SystemState state, std::unique_ptr<SchedulerPolicy> policy,
           std::unique_ptr<RuntimeEstimator> predictor)
    : name_(std::move(name)),
      state_(std::move(state)),
      policy_(std::move(policy)),
      predictor_(std::move(predictor)) {
  RTP_CHECK(policy_ != nullptr, "Site needs a policy");
  RTP_CHECK(predictor_ != nullptr, "Site needs a predictor");
}

SiteEstimate SiteSelector::evaluate_site(const Site& site, const Job& job,
                                         Seconds now) const {
  SiteEstimate estimate;
  estimate.site = site.name();
  if (job.nodes > site.machine_nodes()) return estimate;  // infeasible
  estimate.feasible = true;
  estimate.predicted_runtime = site.predictor().estimate(job, 0.0);

  // Snapshot the site, refresh every estimate with its predictor, enqueue
  // the candidate and replay — exactly the wait-time method of §3.
  SystemState shadow = site.state();
  reestimate_all(shadow, site.predictor(), now);
  shadow.enqueue(job, now, estimate.predicted_runtime);

  estimate.wait_interval =
      predict_wait_interval(shadow, site.policy(), now, job.id, options_.optimistic_scale,
                            options_.pessimistic_scale);
  estimate.predicted_wait = estimate.wait_interval.expected;
  estimate.predicted_turnaround = estimate.predicted_wait + estimate.predicted_runtime;
  return estimate;
}

std::vector<SiteEstimate> SiteSelector::evaluate(
    std::span<const std::unique_ptr<Site>> sites, const Job& job, Seconds now) const {
  RTP_CHECK(job.id != kInvalidJob, "candidate job needs an id");
  std::vector<SiteEstimate> estimates;
  estimates.reserve(sites.size());
  for (const auto& site : sites) {
    RTP_CHECK(site != nullptr, "null site");
    RTP_CHECK(site->state().find_queued(job.id) == nullptr &&
                  site->state().find_running(job.id) == nullptr,
              "candidate job id collides with a job already on site " + site->name());
    estimates.push_back(evaluate_site(*site, job, now));
  }
  const bool risk_averse = options_.risk_averse;
  std::stable_sort(estimates.begin(), estimates.end(),
                   [risk_averse](const SiteEstimate& a, const SiteEstimate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     const double ka = risk_averse
                                           ? a.wait_interval.pessimistic + a.predicted_runtime
                                           : a.predicted_turnaround;
                     const double kb = risk_averse
                                           ? b.wait_interval.pessimistic + b.predicted_runtime
                                           : b.predicted_turnaround;
                     return ka < kb;
                   });
  return estimates;
}

const Site* SiteSelector::select(std::span<const std::unique_ptr<Site>> sites,
                                 const Job& job, Seconds now) const {
  const auto estimates = evaluate(sites, job, now);
  if (estimates.empty() || !estimates.front().feasible) return nullptr;
  for (const auto& site : sites)
    if (site->name() == estimates.front().site) return site.get();
  return nullptr;
}

}  // namespace rtp
