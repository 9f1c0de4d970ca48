#include <gtest/gtest.h>

#include "routing/spf.hpp"
#include "support/lsdb_reachable.hpp"

namespace f2t::routing {
namespace {

using net::Ipv4Addr;
using net::Prefix;

LsaPtr make_lsa(Ipv4Addr origin, std::vector<Ipv4Addr> neighbors,
                std::vector<Prefix> prefixes = {}, std::uint64_t seq = 1) {
  auto lsa = std::make_shared<Lsa>();
  lsa->origin = origin;
  lsa->sequence = seq;
  for (const auto& n : neighbors) lsa->links.push_back({n, 1});
  lsa->prefixes = std::move(prefixes);
  return lsa;
}

const Ipv4Addr A(10, 12, 0, 1);
const Ipv4Addr B(10, 12, 1, 1);
const Ipv4Addr C(10, 12, 2, 1);
const Ipv4Addr D(10, 12, 3, 1);
const Prefix kDst = Prefix::parse("10.11.9.0/24");

TEST(Spf, DiamondProducesEcmpFirstHops) {
  // A - {B, C} - D, destination prefix at D: both first hops retained.
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {B, C}, {kDst}));

  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, C}};
  const auto routes = SpfSolver{}.run(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].prefix, kDst);
  ASSERT_EQ(routes[0].next_hops.size(), 2u);
}

TEST(Spf, ShorterPathBeatsLonger) {
  // A - B - D and A - C - X(->D longer): only B is a first hop.
  const Ipv4Addr X(10, 12, 4, 1);
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, X}));
  db.consider(make_lsa(X, {C, D}));
  db.consider(make_lsa(D, {B, X}, {kDst}));

  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, C}};
  const auto routes = SpfSolver{}.run(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_EQ(routes[0].next_hops.size(), 1u);
  EXPECT_EQ(routes[0].next_hops[0].via, B);
}

TEST(Spf, OneWayAdjacencyIsIgnored) {
  // B claims a link to D, but D does not claim B: the edge must not be
  // used (OSPF two-way check), so D is reachable only via C.
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {C}, {kDst}));  // no B!

  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, C}};
  const auto routes = SpfSolver{}.run(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_EQ(routes[0].next_hops.size(), 1u);
  EXPECT_EQ(routes[0].next_hops[0].via, C);
}

TEST(Spf, UnreachableDestinationYieldsNoRoute) {
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A}));
  db.consider(make_lsa(D, {}, {kDst}));  // isolated
  const std::vector<LocalAdjacency> adjacency{{0, B}};
  EXPECT_TRUE(SpfSolver{}.run(db, A, adjacency).empty());
}

TEST(Spf, ParallelLinksToSameNeighborAllBecomeNextHops) {
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A}, {kDst}));
  // Two local ports both facing B (the testbed's doubled across links).
  const std::vector<LocalAdjacency> adjacency{{0, B}, {1, B}};
  const auto routes = SpfSolver{}.run(db, A, adjacency);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].next_hops.size(), 2u);
}

TEST(Spf, DeadLocalPortExcludedByAdjacencyList) {
  // The caller passes only live adjacencies; a dead one simply isn't
  // offered, and the destination resolves via the remaining port.
  Lsdb db;
  db.consider(make_lsa(A, {B, C}));
  db.consider(make_lsa(B, {A, D}));
  db.consider(make_lsa(C, {A, D}));
  db.consider(make_lsa(D, {B, C}, {kDst}));
  const std::vector<LocalAdjacency> only_c{{1, C}};
  const auto routes = SpfSolver{}.run(db, A, only_c);
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_EQ(routes[0].next_hops.size(), 1u);
  EXPECT_EQ(routes[0].next_hops[0].via, C);
}

TEST(Spf, MultiplePrefixesPerRouter) {
  const Prefix kDst2 = Prefix::parse("10.11.10.0/24");
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A}, {kDst, kDst2}));
  const std::vector<LocalAdjacency> adjacency{{0, B}};
  const auto routes = SpfSolver{}.run(db, A, adjacency);
  EXPECT_EQ(routes.size(), 2u);
}

TEST(Spf, ReachabilityProbe) {
  Lsdb db;
  db.consider(make_lsa(A, {B}));
  db.consider(make_lsa(B, {A, C}));
  db.consider(make_lsa(C, {B}));
  db.consider(make_lsa(D, {C}));  // one-way: C doesn't list D
  EXPECT_TRUE(lsdb_reachable(db, A, C));
  EXPECT_TRUE(lsdb_reachable(db, A, A));
  EXPECT_FALSE(lsdb_reachable(db, A, D));
  EXPECT_FALSE(lsdb_reachable(db, D, A));  // D->C edge fails two-way check
}

}  // namespace
}  // namespace f2t::routing
