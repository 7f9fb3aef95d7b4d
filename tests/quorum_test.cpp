// pbft::Quorum, the one vote tally: a vote counts once per roster member
// per key, and a sender off the roster counts for nothing.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "pbft/quorum.hpp"

namespace gpbft::pbft {
namespace {

/// Members node-1 .. node-n, sorted.
std::vector<NodeId> roster_of(std::size_t n) {
  std::vector<NodeId> roster;
  for (std::size_t i = 1; i <= n; ++i) roster.emplace_back(i);
  return roster;
}

TEST(Quorum, RepeatedVoteCountsOnce) {
  const std::vector<NodeId> roster = roster_of(4);
  Quorum<ViewId> votes(roster);
  EXPECT_TRUE(votes.add(NodeId{2}, 7));
  EXPECT_FALSE(votes.add(NodeId{2}, 7));
  EXPECT_EQ(votes.count(7), 1u);
  EXPECT_TRUE(votes.add(NodeId{3}, 7));
  EXPECT_EQ(votes.count(7), 2u);
}

TEST(Quorum, NonMemberIsRefused) {
  const std::vector<NodeId> roster = {NodeId{2}, NodeId{5}, NodeId{9}, NodeId{11}};
  Quorum<ViewId> votes(roster);
  for (const std::uint64_t outsider : {0u, 1u, 3u, 10u, 12u, 10'001u}) {
    EXPECT_FALSE(votes.add(NodeId{outsider}, 1)) << outsider;
  }
  EXPECT_EQ(votes.count(1), 0u);
  EXPECT_EQ(votes.max_count(), 0u);
  for (const NodeId member : roster) EXPECT_TRUE(votes.add(member, 1)) << member.str();
  EXPECT_EQ(votes.count(1), 4u);
}

TEST(Quorum, KeysCountIndependently) {
  const std::vector<NodeId> roster = roster_of(7);
  Quorum<crypto::Hash256> votes(roster);
  const crypto::Hash256 a = crypto::sha256("block a");
  const crypto::Hash256 b = crypto::sha256("block b");
  EXPECT_TRUE(votes.add(NodeId{1}, a));
  EXPECT_TRUE(votes.add(NodeId{1}, b));  // the same member, another key
  EXPECT_TRUE(votes.add(NodeId{2}, a));
  EXPECT_TRUE(votes.add(NodeId{3}, a));
  EXPECT_EQ(votes.count(a), 3u);
  EXPECT_EQ(votes.count(b), 1u);
  EXPECT_EQ(votes.count(crypto::sha256("block c")), 0u);
}

TEST(Quorum, MaxCountSpansKeys) {
  // "f+1 votes for any key": f = 2 for seven members.
  const std::vector<NodeId> roster = roster_of(7);
  const std::size_t f = faults_tolerated(roster.size());
  ASSERT_EQ(f, 2u);
  Quorum<SeqNum> votes(roster);
  EXPECT_EQ(votes.max_count(), 0u);
  votes.add(NodeId{1}, 10);
  votes.add(NodeId{2}, 11);
  votes.add(NodeId{3}, 12);
  EXPECT_EQ(votes.max_count(), 1u);  // three voters, one per key
  votes.add(NodeId{4}, 11);
  EXPECT_EQ(votes.max_count(), 2u);
  EXPECT_LT(votes.max_count(), f + 1);
  votes.add(NodeId{5}, 11);
  EXPECT_EQ(votes.max_count(), f + 1);
}

TEST(Quorum, RanksAcrossWordBoundariesWithNoCap) {
  // Ranks 63 and 64 sit in different words, and 299 is in the fifth: a
  // 300-member roster is past the 202 the paper's grid reaches.
  const std::vector<NodeId> roster = roster_of(300);
  Quorum<ViewId> votes(roster);
  for (const std::size_t rank : {63u, 64u, 299u}) {
    EXPECT_TRUE(votes.add(roster[rank], 1)) << "rank " << rank;
    EXPECT_FALSE(votes.add(roster[rank], 1)) << "rank " << rank;
  }
  EXPECT_EQ(votes.count(1), 3u);
  for (const NodeId member : roster) votes.add(member, 2);
  EXPECT_EQ(votes.count(2), 300u);
  EXPECT_EQ(votes.count(1), 3u);
  EXPECT_FALSE(votes.add(NodeId{301}, 2));
}

TEST(Quorum, EraseIfDropsOnlyMatchingKeys) {
  const std::vector<NodeId> roster = roster_of(100);
  Quorum<std::pair<SeqNum, crypto::Hash256>> votes(roster);
  const crypto::Hash256 digest = crypto::sha256("tip");
  for (SeqNum seq = 16; seq <= 64; seq += 16) {
    for (std::size_t i = 0; i < seq; ++i) votes.add(roster[i + 30], {seq, digest});
  }
  votes.erase_if([](const auto& key) { return key.first <= 32; });
  EXPECT_EQ(votes.count({16, digest}), 0u);
  EXPECT_EQ(votes.count({32, digest}), 0u);
  EXPECT_EQ(votes.count({48, digest}), 48u);
  EXPECT_EQ(votes.count({64, digest}), 64u);
  EXPECT_TRUE(votes.add(roster[0], {16, digest}));  // an erased key starts over
  EXPECT_EQ(votes.count({16, digest}), 1u);
}

TEST(Quorum, ClearEmptiesEveryKey) {
  const std::vector<NodeId> roster = roster_of(4);
  Quorum<ViewId> votes(roster);
  for (ViewId view = 1; view <= 3; ++view) {
    for (const NodeId member : roster) votes.add(member, view);
  }
  votes.clear();
  for (ViewId view = 1; view <= 3; ++view) EXPECT_EQ(votes.count(view), 0u);
  EXPECT_EQ(votes.max_count(), 0u);
  EXPECT_TRUE(votes.add(NodeId{1}, 2));  // a cleared vote counts again
  EXPECT_EQ(votes.count(2), 1u);
}

TEST(Quorum, ClearedTallyFollowsANewRoster) {
  // The owner clears a tally when its roster changes; after that the
  // tally ranks the new members, however many words they need. Until
  // then it keeps the one word it started with, and a rank past that
  // word has no slot.
  std::vector<NodeId> roster = roster_of(4);
  Quorum<ViewId> votes(roster);
  EXPECT_TRUE(votes.add(NodeId{4}, 1));
  roster = roster_of(130);
  EXPECT_FALSE(votes.add(NodeId{130}, 1));
  votes.clear();
  EXPECT_FALSE(votes.add(NodeId{131}, 1));
  EXPECT_TRUE(votes.add(NodeId{130}, 1));
  EXPECT_TRUE(votes.add(NodeId{4}, 1));
  EXPECT_EQ(votes.count(1), 2u);
}

TEST(Quorum, FaultsTolerated) {
  const std::pair<std::size_t, std::size_t> cases[] = {{1, 0},  {3, 0},   {4, 1},   {6, 1},
                                                       {7, 2},  {40, 13}, {202, 67}, {300, 99}};
  for (const auto& [n, f] : cases) EXPECT_EQ(faults_tolerated(n), f) << "n=" << n;
}

}  // namespace
}  // namespace gpbft::pbft
