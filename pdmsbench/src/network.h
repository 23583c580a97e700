#ifndef PDMSBENCH_NETWORK_H_
#define PDMSBENCH_NETWORK_H_

// Workload inputs: the mapping networks the benchmark feeds the system, and
// the checks and scores it applies to the system's posteriors.

#include <cstdint>
#include <string>
#include <vector>

#include "mapping/mapping_generator.h"
#include "pdms/pdms.h"

namespace pdmsbench {

/// A symmetrized Barabási–Albert mapping network (m = 2, 6 attributes per
/// schema, mapping-entry error rate 0.2) whose structure —
/// topology and which mapping entries are wrong — comes from
/// `structure_seed`. With `relabel`, `seed` renumbers it: peer ids are a
/// seeded permutation and edges are added in a seeded order. Same
/// arguments, same network.
pdms::SyntheticPdms MakeNetwork(size_t peers, uint64_t structure_seed,
                                bool relabel, uint64_t seed);

/// Share of live (edge, attribute) entries whose posterior lies on the
/// ground-truth side of 0.5. Guessing "all correct" scores 1 - error rate.
double DetectAccuracy(const pdms::Pdms& pdms,
                      const pdms::SyntheticPdms& network);

/// Every live (edge, attribute) posterior, in edge-id order.
std::vector<double> AllPosteriors(const pdms::Pdms& pdms);

/// Empty when every posterior is finite and within [0, 1]; otherwise a
/// description of the first offender.
std::string CheckPosteriorRange(const std::vector<double>& posteriors);

/// The row the benchmark inserts at `origin` before any query runs; a
/// query from `origin` must return it.
std::string MarkerValue(pdms::PeerId origin);

/// Inserts `MarkerValue(p)` under attribute 0 at every peer.
void InsertMarkerRows(pdms::Pdms* pdms);

/// Query text projecting `origin`'s attribute 0.
std::string MarkerQueryText(const pdms::Pdms& pdms, pdms::PeerId origin);

/// `count` query origins drawn from `seed`.
std::vector<pdms::PeerId> QueryOrigins(size_t peers, size_t count,
                                       uint64_t seed);

}  // namespace pdmsbench

#endif  // PDMSBENCH_NETWORK_H_
