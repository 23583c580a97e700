#include "network.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "graph/topology.h"
#include "util/rng.h"

namespace pdmsbench {

using pdms::AttributeId;
using pdms::EdgeId;
using pdms::PeerId;

namespace {

constexpr size_t kAttributes = 6;
constexpr double kErrorRate = 0.2;

template <typename T>
void Shuffle(std::vector<T>* values, pdms::Rng* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    const size_t j = rng->NextUint64() % i;
    std::swap((*values)[i - 1], (*values)[j]);
  }
}

}  // namespace

pdms::SyntheticPdms MakeNetwork(size_t peers, uint64_t structure_seed,
                                bool relabel, uint64_t seed) {
  pdms::Rng structure_rng(structure_seed);
  pdms::Digraph graph =
      pdms::topology::BarabasiAlbert(peers, 2, &structure_rng);
  pdms::topology::Symmetrize(&graph);
  pdms::MappingNetworkOptions options;
  options.attributes_per_schema = kAttributes;
  options.error_rate = kErrorRate;
  pdms::SyntheticPdms base =
      pdms::BuildSyntheticPdms(graph, options, &structure_rng);
  if (!relabel) return base;

  pdms::Rng rng(seed ^ 0x5DEECE66Dull);
  std::vector<PeerId> label(peers);
  std::iota(label.begin(), label.end(), PeerId{0});
  Shuffle(&label, &rng);
  std::vector<EdgeId> order = base.graph.LiveEdges();
  Shuffle(&order, &rng);

  pdms::SyntheticPdms network;
  network.graph = pdms::Digraph(peers);
  network.schemas.resize(peers);
  for (PeerId p = 0; p < peers; ++p) {
    network.schemas[label[p]] = std::move(base.schemas[p]);
  }
  network.mappings.reserve(order.size());
  network.ground_truth.reserve(order.size());
  for (EdgeId old_edge : order) {
    const pdms::Edge& edge = base.graph.edge(old_edge);
    network.graph.AddEdge(label[edge.src], label[edge.dst]).value();
    network.mappings.push_back(std::move(base.mappings[old_edge]));
    network.ground_truth.push_back(std::move(base.ground_truth[old_edge]));
  }
  return network;
}

double DetectAccuracy(const pdms::Pdms& pdms,
                      const pdms::SyntheticPdms& network) {
  size_t right = 0;
  size_t total = 0;
  for (EdgeId e : pdms.graph().LiveEdges()) {
    const std::vector<bool>& truth = network.ground_truth[e];
    for (AttributeId a = 0; a < truth.size(); ++a) {
      right += (pdms.Posterior(e, a) > 0.5) == truth[a];
      ++total;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(right) / total;
}

std::vector<double> AllPosteriors(const pdms::Pdms& pdms) {
  std::vector<double> posteriors;
  for (EdgeId e : pdms.graph().LiveEdges()) {
    const size_t attributes = pdms.peer(pdms.graph().edge(e).src).schema().size();
    for (AttributeId a = 0; a < attributes; ++a) {
      posteriors.push_back(pdms.Posterior(e, a));
    }
  }
  return posteriors;
}

std::string CheckPosteriorRange(const std::vector<double>& posteriors) {
  for (size_t i = 0; i < posteriors.size(); ++i) {
    const double value = posteriors[i];
    if (!std::isfinite(value) || value < 0.0 || value > 1.0) {
      return "posterior #" + std::to_string(i) + " = " +
             std::to_string(value) + " is not a probability";
    }
  }
  return "";
}

std::string MarkerValue(PeerId origin) {
  return "pdmsbench-marker-" + std::to_string(origin);
}

void InsertMarkerRows(pdms::Pdms* pdms) {
  for (PeerId p = 0; p < pdms->peer_count(); ++p) {
    pdms->peer(p).store().Insert(p, {{AttributeId{0}, MarkerValue(p)}});
  }
}

std::string MarkerQueryText(const pdms::Pdms& pdms, PeerId origin) {
  return "SELECT " + pdms.peer(origin).schema().attribute(0).name;
}

std::vector<PeerId> QueryOrigins(size_t peers, size_t count, uint64_t seed) {
  pdms::Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<PeerId> origins(count);
  for (PeerId& origin : origins) {
    origin = static_cast<PeerId>(rng.NextUint64() % peers);
  }
  return origins;
}

}  // namespace pdmsbench
