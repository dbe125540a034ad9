#include "campaign/fairness.hpp"

namespace duo::campaign {

double jain_index(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (xs.empty() || sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

FairnessSummary summarize_fairness(const serve::ServerStats& stats) {
  FairnessSummary out;
  out.clients = static_cast<std::int64_t>(stats.per_client.size());

  std::vector<double> served;
  std::vector<double> billed;
  served.reserve(stats.per_client.size());
  billed.reserve(stats.per_client.size());
  bool first = true;
  for (const auto& [id, c] : stats.per_client) {
    served.push_back(static_cast<double>(c.served));
    billed.push_back(static_cast<double>(c.billed()));
    out.billed_total += c.billed();
    if (first || c.served > out.most_served) {
      out.most_served = c.served;
      out.most_served_client = id;
    }
    if (first || c.served < out.least_served) {
      out.least_served = c.served;
      out.least_served_client = id;
    }
    first = false;
  }
  out.jain_served = jain_index(served);
  out.jain_billed = jain_index(billed);
  return out;
}

}  // namespace duo::campaign
