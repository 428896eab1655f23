#include "gc/cycle/cdm.h"

#include <algorithm>
#include <sstream>

namespace rgc::gc {

std::string to_string(const Element& e) {
  if (e.tag == Element::Kind::kReplica) return rgc::to_string(e.replica);
  return rgc::to_string(e.holder) + "->" + rgc::to_string(e.replica);
}

namespace {

using Edge = std::pair<Element, Element>;

/// The run of `edges` leaving `from` starts here (edges sort by `from`).
std::vector<Edge>::const_iterator first_edge_from(const std::vector<Edge>& edges,
                                                  const Element& from) {
  return std::lower_bound(
      edges.begin(), edges.end(), from,
      [](const Edge& e, const Element& f) { return e.first < f; });
}

}  // namespace

bool Cdm::observe(Observation obs) {
  auto it = std::lower_bound(
      observations.begin(), observations.end(), obs.link,
      [](const Observation& o, const auto& link) { return o.link < link; });
  // Every recorded observation of this link carries the same counter (a
  // disagreeing one is refused below), so the first of the run decides.
  if (it != observations.end() && it->link == obs.link &&
      it->counter != obs.counter) {
    return false;
  }
  observations.insert(it, std::move(obs));
  return true;
}

void Cdm::require(const Element& from, const Element& on, bool prop) {
  (prop ? prop_deps : ref_deps).insert(on);
  dep_edges.insert({from, on});
}

util::FlatSet<Element> Cdm::required_closure() const {
  const auto& edges = dep_edges.items();
  util::FlatSet<Element> closure;
  std::vector<Element> work{Element::make(candidate)};
  closure.insert(work.front());
  while (!work.empty()) {
    const Element cur = work.back();
    work.pop_back();
    for (auto it = first_edge_from(edges, cur);
         it != edges.end() && it->first == cur; ++it) {
      if (closure.insert(it->second)) work.push_back(it->second);
    }
  }
  return closure;
}

util::FlatSet<Element> Cdm::unresolved() const {
  return required_closure().difference(targets);
}

bool Cdm::cycle_complete() const {
  if (open_hint && !targets.contains(*open_hint)) return false;
  const auto& tv = targets.items();
  // Position of `e` in the target set, or -1 when unvisited.
  const auto target_index = [&tv](const Element& e) -> std::ptrdiff_t {
    const auto it = std::lower_bound(tv.begin(), tv.end(), e);
    return it != tv.end() && *it == e ? it - tv.begin() : -1;
  };
  const Element head = Element::make(candidate);
  const std::ptrdiff_t start = target_index(head);
  if (start < 0) {  // the loop has not closed yet
    open_hint = head;
    return false;
  }
  // The required_closure() walk, stopped at the first unvisited element.
  // Everything it passes lies in the target set, so a bitmap over target
  // positions records what was seen.
  std::vector<bool> seen(tv.size());
  seen[start] = true;
  std::vector<std::ptrdiff_t> work{start};
  const auto& edges = dep_edges.items();
  while (!work.empty()) {
    const Element& cur = tv[work.back()];
    work.pop_back();
    for (auto it = first_edge_from(edges, cur);
         it != edges.end() && it->first == cur; ++it) {
      const std::ptrdiff_t i = target_index(it->second);
      if (i < 0) {
        open_hint = it->second;
        return false;
      }
      if (seen[i]) continue;
      seen[i] = true;
      work.push_back(i);
    }
  }
  return true;
}

util::FlatSet<Element> Cdm::flat_unresolved() const {
  util::FlatSet<Element> u = prop_deps.difference(targets);
  u.merge(ref_deps.difference(targets));
  return u;
}

std::string Cdm::to_string() const {
  std::ostringstream os;
  auto emit = [&os](const util::FlatSet<Element>& set) {
    os << "{";
    bool first = true;
    for (const Element& e : set) {
      if (!first) os << ", ";
      first = false;
      os << gc::to_string(e);
    }
    os << "}";
  };
  os << "{ ";
  emit(prop_deps);
  os << ", ";
  emit(ref_deps);
  os << " } -> ";
  emit(targets);
  return os.str();
}

}  // namespace rgc::gc
