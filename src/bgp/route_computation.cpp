#include "bgp/route_computation.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/span.hpp"

namespace quicksand::bgp {

namespace {

/// An AS's best offer so far in the current solve; valid iff stamp equals
/// the solve's epoch. Each AS receives offers during one round only (the
/// stage-1 level, stage-2 round or stage-3 level that routes it), so one
/// stamp per solve suffices.
struct Candidate {
  std::uint64_t score = 0;
  AsIndex exporter = 0;
  std::uint32_t stamp = 0;
};

/// Working memory of the kernel, one per thread and reused by every solve
/// (and FailLink and CountCrossing) on it. Arrays only grow (to the largest graph solved so
/// far) and are reset by bumping `epoch`, so a solve allocates nothing but
/// its result.
struct Scratch {
  std::vector<Candidate> candidates;    // per AS
  std::vector<std::uint32_t> link_down;  // per link id: failed iff == epoch
  std::vector<int> radius;               // per origin AS of the current solve
  std::vector<std::uint32_t> rerouted;   // per AS: in FailLink's subtree iff == epoch
  std::vector<AsIndex> subtree;          // FailLink's subtree, root first
  /// buckets[L - base]: the ASes whose route of length L is final, in the
  /// order they were finalized. Stage 1 fills them with customer and self
  /// routes, stage 2 adds the peer routes, stage 3 walks them again and
  /// appends the provider routes.
  std::vector<std::vector<AsIndex>> buckets;
  std::size_t used_buckets = 0;  // buckets[used_buckets..] are empty
  std::vector<AsIndex> peer_offers;  // ASes holding a stage-2 candidate
  std::uint32_t epoch = 0;

  /// Readies the scratch for a solve over `as_count` ASes, `link_count`
  /// links and `levels` buckets; returns the solve's epoch.
  std::uint32_t Begin(std::size_t as_count, std::size_t link_count, std::size_t levels) {
    if (candidates.size() < as_count) {
      candidates.resize(as_count);
      radius.resize(as_count);
      rerouted.resize(as_count);
    }
    if (link_down.size() < link_count) link_down.resize(link_count);
    // A solve cut short by an exception can have filled one bucket past
    // used_buckets.
    const std::size_t dirty = std::min(used_buckets + 1, buckets.size());
    for (std::size_t i = 0; i < dirty; ++i) buckets[i].clear();
    used_buckets = 0;
    if (buckets.size() < levels) buckets.resize(levels);
    if (++epoch == 0) {  // wrapped: forget every stamp
      std::fill(candidates.begin(), candidates.end(), Candidate{});
      std::fill(link_down.begin(), link_down.end(), 0);
      std::fill(rerouted.begin(), rerouted.end(), 0);
      epoch = 1;
    }
    return epoch;
  }

  /// Appends a bucket entry for `as` at `level`.
  void Push(std::size_t level, AsIndex as) {
    buckets[level].push_back(as);
    used_buckets = std::max(used_buckets, level + 1);
  }

  /// Empties every bucket in use.
  void ClearBuckets() {
    for (std::size_t i = 0; i < used_buckets; ++i) buckets[i].clear();
    used_buckets = 0;
  }
};

thread_local Scratch tls_scratch;

std::string OriginError(AsNumber origin, const std::string& what) {
  return "OriginSpec AS" + std::to_string(origin) + ": " + what;
}

/// The endpoint of `link` that forwards over it in `routes`, if any.
std::optional<AsIndex> ForwarderOver(const AsGraph& graph, const std::vector<RouteEntry>& routes,
                                     std::uint64_t link) {
  if (!graph.LinkIdOf(link)) return std::nullopt;
  const auto a = static_cast<AsIndex>(link >> 32);
  const auto b = static_cast<AsIndex>(link & 0xFFFFFFFFu);
  const auto forwards = [&](AsIndex from, AsIndex to) {
    const RouteEntry& route = routes[from];
    return route.cls != RouteClass::kSelf && route.cls != RouteClass::kNone &&
           route.next_hop == to;
  };
  if (forwards(a, b)) return a;
  if (forwards(b, a)) return b;
  return std::nullopt;
}

/// Appends to `subtree` `root` and every AS whose forwarding path runs
/// through it, breadth first, stopping once `subtree` holds `cap` ASes.
/// An AS's children are the neighbours that forward to it: customers with
/// a provider route, peers with a peer route, providers with a customer
/// route through it.
void CollectSubtree(const AsGraph& graph, const RouteEntry* r, AsIndex root,
                    std::vector<AsIndex>& subtree, std::size_t cap) {
  subtree.push_back(root);
  const auto children = [&](AsIndex parent, std::span<const Edge> edges, RouteClass cls) {
    for (const Edge& e : edges) {
      if (r[e.to].next_hop == parent && r[e.to].cls == cls) subtree.push_back(e.to);
    }
  };
  for (std::size_t i = 0; i < subtree.size() && subtree.size() < cap; ++i) {
    const AsIndex parent = subtree[i];
    children(parent, graph.CustomersOf(parent), RouteClass::kProvider);
    children(parent, graph.PeersOf(parent), RouteClass::kPeer);
    children(parent, graph.ProvidersOf(parent), RouteClass::kCustomer);
  }
  if (subtree.size() > cap) subtree.resize(cap);
}

}  // namespace

std::size_t RoutingState::RoutedCount() const noexcept {
  std::size_t count = 0;
  for (const RouteEntry& r : routes_) {
    if (r.cls != RouteClass::kNone) ++count;
  }
  return count;
}

AsPath RoutingState::PathOf(AsIndex as) const {
  if (!HasRoute(as)) return {};
  std::vector<AsNumber> hops;
  AsIndex current = as;
  while (routes_[current].cls != RouteClass::kSelf) {
    hops.push_back(graph_->AsnOf(current));
    current = routes_[current].next_hop;
  }
  const int prepend = routes_[current].length;
  for (int i = 0; i < prepend; ++i) hops.push_back(graph_->AsnOf(current));
  return AsPath(std::move(hops));
}

std::vector<AsIndex> RoutingState::ForwardingPath(AsIndex src) const {
  if (!HasRoute(src)) return {};
  std::vector<AsIndex> path;
  AsIndex current = src;
  path.push_back(current);
  while (routes_[current].cls != RouteClass::kSelf) {
    current = routes_[current].next_hop;
    path.push_back(current);
  }
  return path;
}

std::vector<AsIndex> RoutingState::AsesRoutedTo(AsIndex origin) const {
  std::vector<AsIndex> out;
  for (AsIndex as = 0; as < routes_.size(); ++as) {
    if (HasRoute(as) && routes_[as].origin == origin) out.push_back(as);
  }
  return out;
}

std::size_t RoutingState::CountCrossing(std::uint64_t link, std::size_t cap) const {
  const std::optional<AsIndex> root = ForwarderOver(*graph_, routes_, link);
  if (!root || cap == 0) return 0;
  std::vector<AsIndex>& subtree = tls_scratch.subtree;
  subtree.clear();
  CollectSubtree(*graph_, routes_.data(), *root, subtree, cap);
  return subtree.size();
}

AsIndex RoutingState::NextHopWithSalt(AsIndex as, std::uint64_t salt) const {
  if (!salt_shiftable_) {
    throw std::invalid_argument(
        "ShiftSalt: a state with several origins or a propagation radius cannot be "
        "shifted exactly");
  }
  if (as >= graph_->AsCount()) throw std::invalid_argument("ShiftSalt: AS index out of range");
  const RouteEntry& route = routes_[as];
  // The exporters that offered `as` its class and length in the solve:
  // customers with a customer/self route (stage 1), peers with one
  // (stage 2), or providers with any route (stage 3), one hop shorter.
  std::span<const Edge> edges;
  RouteClass worst_offer = RouteClass::kCustomer;
  switch (route.cls) {
    case RouteClass::kCustomer: edges = graph_->CustomersOf(as); break;
    case RouteClass::kPeer: edges = graph_->PeersOf(as); break;
    case RouteClass::kProvider:
      edges = graph_->ProvidersOf(as);
      worst_offer = RouteClass::kProvider;
      break;
    case RouteClass::kSelf:
    case RouteClass::kNone: return route.next_hop;  // no exporter to choose
  }
  AsIndex hop = route.next_hop;
  std::uint64_t best = 0;
  bool found = false;
  for (const Edge& e : edges) {
    const RouteEntry& via = routes_[e.to];
    if (via.cls > worst_offer || via.length + 1 != route.length) continue;
    if (std::binary_search(disabled_links_.begin(), disabled_links_.end(), LinkKey(as, e.to))) {
      continue;
    }
    const std::uint64_t score = TieBreakScore(graph_->AsnOf(e.to), salt);
    if (!found || score < best) {
      best = score;
      hop = e.to;
      found = true;
    }
  }
  return hop;
}

RoutingState ComputeRoutes(const AsGraph& graph, std::span<const OriginSpec> origins,
                           const ComputationOptions& options) {
  const obs::ScopedSpan span("bgp.compute_routes");
  const std::size_t n = graph.AsCount();
  const std::span<const std::uint64_t> salts = options.tie_break_salts;
  if (!salts.empty() && salts.size() != n) {
    throw std::invalid_argument("tie_break_salts size must equal AsCount");
  }
  std::vector<RouteEntry> routes(n);
  int min_prepend = 0;
  int max_prepend = 0;
  bool has_radius = false;
  for (const OriginSpec& spec : origins) {
    if (spec.prepend < 1) {
      throw std::invalid_argument(OriginError(spec.origin, "prepend must be >= 1"));
    }
    if (spec.propagation_radius < 0) {
      throw std::invalid_argument(OriginError(spec.origin, "propagation_radius must be >= 0"));
    }
    const AsIndex idx = graph.MustIndexOf(spec.origin);
    // A route visits each AS at most once, so prepend + n - 1 bounds its length.
    if (static_cast<std::size_t>(spec.prepend) + n - 1 > kMaxRouteLength) {
      throw std::invalid_argument(OriginError(
          spec.origin, "prepend " + std::to_string(spec.prepend) + " with " +
                           std::to_string(n) + " ASes exceeds the maximum route length " +
                           std::to_string(kMaxRouteLength)));
    }
    if (routes[idx].cls == RouteClass::kSelf) {
      throw std::invalid_argument("duplicate origin AS" + std::to_string(spec.origin));
    }
    routes[idx] = RouteEntry{RouteClass::kSelf, idx, idx,
                             static_cast<std::uint16_t>(spec.prepend)};
    min_prepend = min_prepend == 0 ? spec.prepend : std::min(min_prepend, spec.prepend);
    max_prepend = std::max(max_prepend, spec.prepend);
    has_radius = has_radius || spec.propagation_radius > 0;
  }

  // Route lengths run from min_prepend to max_prepend + n - 1; bucket i
  // holds length base + i, and one spare bucket lets every level name its
  // successor.
  const int base = min_prepend;
  const std::size_t levels = static_cast<std::size_t>(max_prepend - min_prepend) + n + 1;
  Scratch& scratch = tls_scratch;
  const std::uint32_t epoch = scratch.Begin(n, graph.LinkCount(), levels);
  Candidate* const cand = scratch.candidates.data();
  std::vector<std::vector<AsIndex>>& buckets = scratch.buckets;
  std::size_t& used = scratch.used_buckets;  // one past the highest non-empty bucket

  for (const OriginSpec& spec : origins) {
    const AsIndex idx = *graph.IndexOf(spec.origin);
    scratch.radius[idx] = spec.propagation_radius;
    const auto level = static_cast<std::size_t>(spec.prepend - base);
    buckets[level].push_back(idx);
    used = std::max(used, level + 1);
  }
  bool any_down = false;
  for (const std::uint64_t key : options.disabled_links) {
    if (const auto link = graph.LinkIdOf(key)) {
      scratch.link_down[*link] = epoch;
      any_down = true;
    }
  }
  const std::uint32_t* const link_down = scratch.link_down.data();
  const AsNumber* const asn = graph.AllAses().data();
  RouteEntry* const r = routes.data();

  // May `exporter`'s route, grown to `length` hops, still propagate?
  const auto within_radius = [&](AsIndex exporter, int length) {
    if (!has_radius) return true;
    const int radius = scratch.radius[r[exporter].origin];
    return radius == 0 || length <= radius;
  };
  // Offers `exporter`'s route, grown to `length`, over `edges` to every
  // neighbour whose current class is worse than `accept_below`; a first
  // offer to an AS appends it to `offered`.
  const auto offer = [&](AsIndex exporter, std::span<const Edge> edges, RouteClass accept_below,
                         std::vector<AsIndex>& offered) {
    const AsNumber exporter_asn = asn[exporter];
    for (const Edge& e : edges) {
      if (any_down && link_down[e.link] == epoch) continue;
      const AsIndex v = e.to;
      if (r[v].cls < accept_below) continue;
      const std::uint64_t score = TieBreakScore(exporter_asn, salts.empty() ? 0 : salts[v]);
      Candidate& c = cand[v];
      if (c.stamp != epoch) {
        c = Candidate{score, exporter, epoch};
        offered.push_back(v);
      } else if (score < c.score) {
        c.score = score;
        c.exporter = exporter;
      }
    }
  };
  // Commits the candidates offered[first..] as routes of class `cls` and
  // length `length`.
  const auto commit = [&](std::vector<AsIndex>& offered, std::size_t first, RouteClass cls,
                          int length) {
    for (std::size_t i = first; i < offered.size(); ++i) {
      const AsIndex v = offered[i];
      const AsIndex exporter = cand[v].exporter;
      r[v] = RouteEntry{cls, exporter, r[exporter].origin, static_cast<std::uint16_t>(length)};
    }
  };

  // ---- Stage 1: customer routes ripple up provider links, level by level.
  // Candidates for level L + 1 collect behind any origin seeded there.
  for (std::size_t level = 0; level < used; ++level) {
    std::vector<AsIndex>& next = buckets[level + 1];
    const std::size_t first = next.size();
    const int length = base + static_cast<int>(level) + 1;
    for (const AsIndex u : buckets[level]) {
      if (within_radius(u, length)) offer(u, graph.ProvidersOf(u), RouteClass::kPeer, next);
    }
    commit(next, first, RouteClass::kCustomer, length);
    if (next.size() > first) used = std::max(used, level + 2);
  }

  // ---- Stage 2: one round of peer exports from customer/self routes.
  // Buckets are walked shortest first, so an AS's first offer has its
  // shortest peer length and later offers compete only at that length.
  std::vector<AsIndex>& peer_offers = scratch.peer_offers;
  peer_offers.clear();
  for (std::size_t level = 0; level < used; ++level) {
    const int length = base + static_cast<int>(level) + 1;
    for (const AsIndex u : buckets[level]) {
      if (!within_radius(u, length)) continue;
      const AsNumber exporter_asn = asn[u];
      for (const Edge& e : graph.PeersOf(u)) {
        if (any_down && link_down[e.link] == epoch) continue;
        const AsIndex v = e.to;
        if (r[v].cls <= RouteClass::kCustomer) continue;
        const std::uint64_t score = TieBreakScore(exporter_asn, salts.empty() ? 0 : salts[v]);
        Candidate& c = cand[v];
        if (c.stamp != epoch) {
          c = Candidate{score, u, epoch};
          peer_offers.push_back(v);
        } else if (score < c.score && r[c.exporter].length + 1 == length) {
          c.score = score;
          c.exporter = u;
        }
      }
    }
  }
  for (const AsIndex v : peer_offers) {
    const RouteEntry& via = r[cand[v].exporter];
    const int length = via.length + 1;
    r[v] = RouteEntry{RouteClass::kPeer, cand[v].exporter, via.origin,
                      static_cast<std::uint16_t>(length)};
    const auto level = static_cast<std::size_t>(length - base);
    buckets[level].push_back(v);
    used = std::max(used, level + 1);
  }

  // ---- Stage 3: routes ripple down customer links, level by level, from
  // every routed AS (customer, self, peer and newly provider routes).
  for (std::size_t level = 0; level < used; ++level) {
    std::vector<AsIndex>& next = buckets[level + 1];
    const std::size_t first = next.size();
    const int length = base + static_cast<int>(level) + 1;
    for (const AsIndex u : buckets[level]) {
      if (within_radius(u, length)) offer(u, graph.CustomersOf(u), RouteClass::kNone, next);
    }
    commit(next, first, RouteClass::kProvider, length);
    if (next.size() > first) used = std::max(used, level + 2);
  }

  RoutingState state(graph, std::move(routes));
  state.salt_shiftable_ = origins.size() == 1 && !has_radius;
  std::vector<std::uint64_t>& failed = state.disabled_links_;
  failed.assign(options.disabled_links.begin(), options.disabled_links.end());
  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
  return state;
}

RoutingState ShiftSalt(RoutingState base, AsIndex as, std::uint64_t salt) {
  const AsIndex hop = base.NextHopWithSalt(as, salt);
  base.routes_[as].next_hop = hop;
  return base;
}

RoutingState FailLink(RoutingState base, std::uint64_t link,
                      std::span<const std::uint64_t> salts) {
  if (!base.salt_shiftable_) {
    throw std::invalid_argument(
        "FailLink: a state with several origins or a propagation radius cannot be "
        "updated exactly");
  }
  const AsGraph& graph = *base.graph_;
  const std::size_t n = graph.AsCount();
  if (!salts.empty() && salts.size() != n) {
    throw std::invalid_argument("FailLink: tie-break salts size must equal AsCount");
  }
  std::vector<std::uint64_t>& failed = base.disabled_links_;
  const auto at = std::lower_bound(failed.begin(), failed.end(), link);
  if (at != failed.end() && *at == link) return base;
  failed.insert(at, link);
  const std::optional<AsIndex> root = ForwarderOver(graph, base.routes_, link);
  if (!root) return base;  // no forwarding path crosses the link

  RouteEntry* const r = base.routes_.data();
  const AsIndex origin = r[*root].origin;
  const int prepend = r[origin].length;
  Scratch& scratch = tls_scratch;
  const std::uint32_t epoch = scratch.Begin(n, graph.LinkCount(), n + 1);
  for (const std::uint64_t key : failed) {
    if (const auto id = graph.LinkIdOf(key)) scratch.link_down[*id] = epoch;
  }
  // The subtree: every AS whose forwarding path crosses the link. Its
  // routes are re-solved from scratch; every other AS keeps a valid route.
  std::vector<AsIndex>& subtree = scratch.subtree;
  subtree.clear();
  CollectSubtree(graph, r, *root, subtree, n);
  std::uint32_t* const rerouted = scratch.rerouted.data();
  for (const AsIndex t : subtree) {
    rerouted[t] = epoch;
    r[t] = RouteEntry{};
  }

  const std::uint32_t* const link_down = scratch.link_down.data();
  const AsNumber* const asn = graph.AllAses().data();
  const auto up = [&](const Edge& e) { return link_down[e.link] != epoch; };
  const auto score = [&](AsIndex exporter, AsIndex receiver) {
    return TieBreakScore(asn[exporter], salts.empty() ? 0 : salts[receiver]);
  };
  const auto level_of = [&](int length) { return static_cast<std::size_t>(length - prepend); };
  // Offers `v`, whose route is of class `cls` or none, a `cls` route of
  // `length` via `exporter` and keeps the better of the two. True if v's
  // route got shorter (or v gained one): v must then be queued at `length`.
  const auto offer = [&](AsIndex v, RouteClass cls, int length, AsIndex exporter) {
    RouteEntry& route = r[v];
    if (route.cls == RouteClass::kNone || length < route.length) {
      route = RouteEntry{cls, exporter, origin, static_cast<std::uint16_t>(length)};
      return true;
    }
    if (length == route.length && score(exporter, v) < score(route.next_hop, v)) {
      route.next_hop = exporter;
    }
    return false;
  };
  std::vector<std::vector<AsIndex>>& buckets = scratch.buckets;

  // ---- Stage 1: the subtree's customer routes. Customers outside it keep
  // their customer routes (a failure only lengthens those), so members
  // first take their offers, then routes ripple up provider links inside
  // the subtree, level by level.
  for (const AsIndex t : subtree) {
    for (const Edge& e : graph.CustomersOf(t)) {
      const RouteEntry& via = r[e.to];
      if (!up(e) || rerouted[e.to] == epoch || via.cls > RouteClass::kCustomer) continue;
      offer(t, RouteClass::kCustomer, via.length + 1, e.to);
    }
    if (r[t].cls == RouteClass::kCustomer) scratch.Push(level_of(r[t].length), t);
  }
  for (std::size_t level = 0; level < scratch.used_buckets; ++level) {
    const int length = prepend + static_cast<int>(level);
    for (const AsIndex u : buckets[level]) {
      if (r[u].length != length) continue;  // queued again, shorter
      for (const Edge& e : graph.ProvidersOf(u)) {
        if (up(e) && rerouted[e.to] == epoch &&
            offer(e.to, RouteClass::kCustomer, length + 1, u)) {
          scratch.Push(level + 1, e.to);
        }
      }
    }
  }

  // ---- Stage 2: members still unrouted take the best peer route, from
  // peers holding a customer or self route.
  for (const AsIndex t : subtree) {
    if (r[t].cls != RouteClass::kNone) continue;
    for (const Edge& e : graph.PeersOf(t)) {
      const RouteEntry& via = r[e.to];
      if (up(e) && via.cls <= RouteClass::kCustomer) {
        offer(t, RouteClass::kPeer, via.length + 1, e.to);
      }
    }
  }

  // ---- Stage 3: provider routes, level by level. Routed members are
  // queued at their length; the rest first take offers from providers
  // outside the subtree. Each queued AS offers its customers: members
  // without a customer or peer route, and ASes outside the subtree whose
  // provider route the offer beats. Those are the improvement wave: a
  // member whose new route is shorter than its old one (a long customer
  // route lost, a short peer route taken) shortens its customers' routes,
  // and they queue in turn.
  scratch.ClearBuckets();
  for (const AsIndex t : subtree) {
    if (r[t].cls == RouteClass::kNone) {
      for (const Edge& e : graph.ProvidersOf(t)) {
        const RouteEntry& via = r[e.to];
        if (up(e) && rerouted[e.to] != epoch && via.cls != RouteClass::kNone) {
          offer(t, RouteClass::kProvider, via.length + 1, e.to);
        }
      }
    }
    if (r[t].cls != RouteClass::kNone) scratch.Push(level_of(r[t].length), t);
  }
  for (std::size_t level = 0; level < scratch.used_buckets; ++level) {
    const int length = prepend + static_cast<int>(level);
    for (const AsIndex u : buckets[level]) {
      if (r[u].length != length) continue;  // queued again, shorter
      for (const Edge& e : graph.CustomersOf(u)) {
        const RouteClass cls = r[e.to].cls;
        const bool open = cls == RouteClass::kProvider ||
                          (cls == RouteClass::kNone && rerouted[e.to] == epoch);
        if (up(e) && open && offer(e.to, RouteClass::kProvider, length + 1, u)) {
          scratch.Push(level + 1, e.to);
        }
      }
    }
  }
  return base;
}
RoutingState ComputeRoutes(const AsGraph& graph, AsNumber origin,
                           const ComputationOptions& options) {
  const OriginSpec spec{origin, 1, 0};
  return ComputeRoutes(graph, std::span<const OriginSpec>(&spec, 1), options);
}

}  // namespace quicksand::bgp
