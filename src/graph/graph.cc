#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_map>

namespace loom {

VertexId LabeledGraph::AddVertex(Label label) {
  const VertexId id = static_cast<VertexId>(labels_.size());
  labels_.push_back(label);
  adjacency_.emplace_back();
  num_labels_ = std::max(num_labels_, static_cast<size_t>(label) + 1);
  return id;
}

Status LabeledGraph::AddEdge(VertexId u, VertexId v) {
  if (!HasVertex(u) || !HasVertex(v)) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) return Status::InvalidArgument("self-loops are not allowed");
  if (HasEdge(u, v)) return Status::AlreadyExists("duplicate edge");
  AddNewEdge(u, v);
  return Status::OK();
}

void LabeledGraph::AddEdgeUnchecked(VertexId u, VertexId v) {
  const Status s = AddEdge(u, v);
  assert(s.ok());
  (void)s;
}

void LabeledGraph::AddNewEdge(VertexId u, VertexId v) {
  assert(HasVertex(u) && HasVertex(v) && u != v && !HasEdge(u, v));
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
}

void LabeledGraph::SetLabel(VertexId v, Label label) {
  assert(HasVertex(v));
  labels_[v] = label;
  num_labels_ = std::max(num_labels_, static_cast<size_t>(label) + 1);
}

bool LabeledGraph::HasEdge(VertexId u, VertexId v) const {
  if (!HasVertex(u) || !HasVertex(v)) return false;
  const auto& a = adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u]
                                                               : adjacency_[v];
  const VertexId needle = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), needle) != a.end();
}

void LabeledGraph::ForEachEdge(
    const std::function<void(VertexId, VertexId)>& fn) const {
  for (VertexId u = 0; u < labels_.size(); ++u) {
    for (const VertexId v : adjacency_[u]) {
      if (u < v) fn(u, v);
    }
  }
}

std::vector<Edge> LabeledGraph::Edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  ForEachEdge([&](VertexId u, VertexId v) { out.push_back(Edge{u, v}); });
  return out;
}

size_t LabeledGraph::DegreeSum() const {
  size_t sum = 0;
  for (const auto& a : adjacency_) sum += a.size();
  return sum;
}

std::string LabeledGraph::ToString() const {
  std::string out = "graph(n=" + std::to_string(NumVertices()) +
                    ", m=" + std::to_string(NumEdges()) + ")\n";
  for (VertexId v = 0; v < labels_.size(); ++v) {
    out += "  " + std::to_string(v) + ":" + std::to_string(labels_[v]) + " ->";
    for (const VertexId w : adjacency_[v]) out += " " + std::to_string(w);
    out += "\n";
  }
  return out;
}

LabeledGraph InducedSubgraph(const LabeledGraph& g,
                             const std::vector<VertexId>& vertices) {
  LabeledGraph sub;
  std::unordered_map<VertexId, VertexId> to_sub;
  to_sub.reserve(vertices.size());
  for (const VertexId v : vertices) {
    to_sub.emplace(v, sub.AddVertex(g.LabelOf(v)));
  }
  for (const VertexId v : vertices) {
    for (const VertexId w : g.Neighbors(v)) {
      if (v < w) {
        const auto it = to_sub.find(w);
        if (it != to_sub.end()) sub.AddEdgeUnchecked(to_sub.at(v), it->second);
      }
    }
  }
  return sub;
}

LabeledGraph EdgeSubgraph(const LabeledGraph& g, const std::vector<Edge>& edges,
                          std::vector<VertexId>* out_vertex_map) {
  LabeledGraph sub;
  std::unordered_map<VertexId, VertexId> to_sub;
  std::vector<VertexId> vertex_map;
  auto intern = [&](VertexId v) {
    const auto it = to_sub.find(v);
    if (it != to_sub.end()) return it->second;
    const VertexId id = sub.AddVertex(g.LabelOf(v));
    to_sub.emplace(v, id);
    vertex_map.push_back(v);
    return id;
  };
  for (const Edge& e : edges) {
    const VertexId su = intern(e.u);
    const VertexId sv = intern(e.v);
    sub.AddEdgeUnchecked(su, sv);
  }
  if (out_vertex_map != nullptr) *out_vertex_map = std::move(vertex_map);
  return sub;
}

bool IsConnected(const LabeledGraph& g) {
  if (g.NumVertices() == 0) return true;
  std::vector<bool> seen(g.NumVertices(), false);
  std::deque<VertexId> queue = {0};
  seen[0] = true;
  size_t visited = 1;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const VertexId w : g.Neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        ++visited;
        queue.push_back(w);
      }
    }
  }
  return visited == g.NumVertices();
}

}  // namespace loom
