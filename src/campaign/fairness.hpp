#pragma once

// Per-client fairness ledger over a ServerStats snapshot. Jain's index
//   J(x) = (Σxᵢ)² / (n · Σxᵢ²)
// over per-client served counts is 1.0 when every client got the same
// service and → 1/n as one client monopolizes the victim; a starved client
// is detectable from the summary without reading n rows. Billed counts
// follow the server's ledger, billed == served + faulted + expired + shed
// (throttled/rejected turn-aways are unbilled); the server's global
// counters are sums of these same slices, so they need no re-check here.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace duo::campaign {

struct FairnessSummary {
  std::int64_t clients = 0;
  double jain_served = 1.0;   // Jain's index over per-client served counts
  double jain_billed = 1.0;   // same over per-client billed counts
  std::string most_served_client;
  std::string least_served_client;
  std::int64_t most_served = 0;
  std::int64_t least_served = 0;
  // Σ per-client billed — the server's served+faulted+expired+shed.
  std::int64_t billed_total = 0;
};

// Jain's fairness index of `xs`; 1.0 for empty/all-zero input (nobody is
// starved when nobody asked).
double jain_index(const std::vector<double>& xs);

// Summarize the per-client breakdown of one stats snapshot.
FairnessSummary summarize_fairness(const serve::ServerStats& stats);

}  // namespace duo::campaign
