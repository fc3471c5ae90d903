#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>

#include "src/minimpi/minimpi.hpp"

namespace {

using namespace vcgt::minimpi;

TEST(MiniMpi, WorldRunsAllRanks) {
  std::atomic<int> count{0};
  World::run(5, [&](Comm& c) {
    EXPECT_EQ(c.size(), 5);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 5);
    ++count;
  });
  EXPECT_EQ(count.load(), 5);
}

TEST(MiniMpi, PointToPointRoundTrip) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> v{1.5, 2.5, 3.5};
      c.send(std::span<const double>(v), 1, 7);
      const auto back = c.recv<double>(1, 8);
      ASSERT_EQ(back.size(), 3u);
      EXPECT_DOUBLE_EQ(back[2], 7.0);
    } else {
      auto v = c.recv<double>(0, 7);
      for (auto& x : v) x *= 2;
      c.send(std::span<const double>(v), 0, 8);
    }
  });
}

TEST(MiniMpi, TagMatchingOutOfOrder) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_value(1, 1, 100);
      c.send_value(2, 1, 200);
    } else {
      // Receive in reverse tag order; mailbox must match selectively.
      EXPECT_EQ(c.recv_value<int>(0, 200), 2);
      EXPECT_EQ(c.recv_value<int>(0, 100), 1);
    }
  });
}

TEST(MiniMpi, AnySourceReportsSender) {
  World::run(3, [](Comm& c) {
    if (c.rank() != 0) {
      c.send_value(c.rank() * 10, 0, 5);
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int src = -1;
        const int v = c.recv_value<int>(kAnySource, 5, &src);
        EXPECT_EQ(v, src * 10);
        seen += v;
      }
      EXPECT_EQ(seen, 30);
    }
  });
}

TEST(MiniMpi, FifoPerSourceAndTag) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) c.send_value(i, 1, 3);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(c.recv_value<int>(0, 3), i);
    }
  });
}

TEST(MiniMpi, EmptyPayloadRoundTrip) {
  // Zero-length messages are legal (a rank with nothing to contribute):
  // the typed wrappers must not touch the null data() of an empty payload.
  World::run(2, [](Comm& c) {
    const int peer = 1 - c.rank();
    c.send(std::span<const double>(), peer, 9);
    EXPECT_TRUE(c.recv<double>(peer, 9).empty());
    EXPECT_TRUE(c.bcast(std::vector<int>(), 0).empty());
  });
}

TEST(MiniMpi, SendrecvRingShift) {
  // Classic ring shift: every rank exchanges with both neighbors using the
  // combined call; a blocking send+recv pairing would deadlock, sendrecv
  // must not.
  World::run(5, [](Comm& c) {
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    const std::vector<int> mine{c.rank() * 100};
    const auto from_left = c.sendrecv(std::span<const int>(mine), right, 21, left, 21);
    ASSERT_EQ(from_left.size(), 1u);
    EXPECT_EQ(from_left[0], left * 100);
  });
}

TEST(MiniMpi, BarrierSynchronizes) {
  std::atomic<int> phase1{0};
  World::run(6, [&](Comm& c) {
    ++phase1;
    c.barrier();
    EXPECT_EQ(phase1.load(), 6);
  });
}

TEST(MiniMpi, BcastFromEveryRoot) {
  World::run(4, [](Comm& c) {
    for (int root = 0; root < 4; ++root) {
      std::vector<int> data;
      if (c.rank() == root) data = {root, root + 1};
      const auto got = c.bcast(data, root);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], root);
      EXPECT_EQ(got[1], root + 1);
    }
  });
}

TEST(MiniMpi, AllreduceSumMax) {
  World::run(5, [](Comm& c) {
    const double sum = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(sum, 15.0);
    const double mx = c.allreduce_max(static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(mx, 4.0);
  });
}

// Regression: the reduce fold must walk contributions in strictly ascending
// rank order regardless of which rank is root. The old implementation
// started the fold with the root's own value, so for a non-associative
// float payload reduce(root=k) diverged bitwise from reduce(root=0). With
// v = {1e16, -1e16, 1} the ascending fold gives (1e16 + -1e16) + 1 = 1,
// while a root-2-first fold gives (1 + 1e16) + -1e16 = 0 — this test fails
// hard pre-fix, not just at the last bit.
TEST(MiniMpi, ReduceFoldOrderIndependentOfRoot) {
  const double payload[3] = {1e16, -1e16, 1.0};
  World::run(3, [&](Comm& c) {
    const double mine = payload[c.rank()];
    const auto plus = [](double a, double b) { return a + b; };
    std::array<double, 3> at_root{};
    for (int root = 0; root < 3; ++root) {
      const double r = c.reduce(mine, plus, root);
      at_root[static_cast<std::size_t>(root)] = r;
    }
    // Each rank only holds the authoritative value where it was root; share
    // them so every rank checks the full set.
    for (int root = 0; root < 3; ++root) {
      std::vector<double> v;
      if (c.rank() == root) v.push_back(at_root[static_cast<std::size_t>(root)]);
      const auto got = c.bcast(v, root);
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 1.0) << "root " << root;
    }
  });
}

// The vector allreduce_sum must be bit-identical per component to the
// scalar path (both fold strictly ascending from rank 0's value).
TEST(MiniMpi, VectorAllreduceSumMatchesScalarBitwise) {
  World::run(3, [](Comm& c) {
    const double base = c.rank() == 0 ? 1e16 : c.rank() == 1 ? -1e16 : 1.0;
    const std::vector<double> mine{base, 0.1 * (c.rank() + 1), -3.5 * c.rank()};
    const auto vec = c.allreduce_sum(std::span<const double>(mine));
    ASSERT_EQ(vec.size(), mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const double scalar = c.allreduce_sum(mine[i]);
      EXPECT_EQ(vec[i], scalar) << "component " << i;
    }
  });
}

TEST(MiniMpi, GathervOrdersByRank) {
  World::run(4, [](Comm& c) {
    std::vector<int> local(static_cast<std::size_t>(c.rank()) + 1, c.rank());
    std::vector<std::size_t> counts;
    const auto all = c.gatherv(std::span<const int>(local), 2, &counts);
    if (c.rank() == 2) {
      ASSERT_EQ(counts.size(), 4u);
      EXPECT_EQ(all.size(), 1u + 2u + 3u + 4u);
      // Concatenation ordered by source rank.
      std::size_t off = 0;
      for (int r = 0; r < 4; ++r) {
        for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
          EXPECT_EQ(all[off++], r);
        }
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(MiniMpi, AllgathervConsistentEverywhere) {
  World::run(3, [](Comm& c) {
    const std::vector<double> local{static_cast<double>(c.rank())};
    const auto all = c.allgatherv(std::span<const double>(local));
    ASSERT_EQ(all.size(), 3u);
    EXPECT_DOUBLE_EQ(all[0], 0.0);
    EXPECT_DOUBLE_EQ(all[1], 1.0);
    EXPECT_DOUBLE_EQ(all[2], 2.0);
  });
}

TEST(MiniMpi, AlltoallvExchangesMatrix) {
  World::run(3, [](Comm& c) {
    std::vector<std::vector<int>> send(3);
    for (int q = 0; q < 3; ++q) send[static_cast<std::size_t>(q)] = {c.rank() * 10 + q};
    const auto recv = c.alltoallv(send);
    for (int q = 0; q < 3; ++q) {
      ASSERT_EQ(recv[static_cast<std::size_t>(q)].size(), 1u);
      EXPECT_EQ(recv[static_cast<std::size_t>(q)][0], q * 10 + c.rank());
    }
  });
}

TEST(MiniMpi, SplitByParity) {
  World::run(6, [](Comm& c) {
    Comm sub = c.split(c.rank() % 2, c.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // Sub-communicator is fully functional.
    const double s = sub.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(s, 3.0);
  });
}

TEST(MiniMpi, SplitUndefinedColorYieldsInvalid) {
  World::run(4, [](Comm& c) {
    Comm sub = c.split(c.rank() == 0 ? -1 : 0, 0);
    if (c.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(MiniMpi, SplitKeyControlsOrdering) {
  World::run(4, [](Comm& c) {
    // Reverse ordering via key.
    Comm sub = c.split(0, -c.rank());
    EXPECT_EQ(sub.rank(), 3 - c.rank());
  });
}

TEST(MiniMpi, RepeatedSplitsIndependent) {
  World::run(4, [](Comm& c) {
    for (int round = 0; round < 5; ++round) {
      Comm sub = c.split(c.rank() / 2, c.rank());
      EXPECT_EQ(sub.size(), 2);
      EXPECT_EQ(sub.allreduce_sum(1.0), 2.0);
    }
  });
}

TEST(MiniMpi, TrafficMetering) {
  World::run(2, [](Comm& c) {
    // reset_traffic requires a quiesced communicator: one rank resets
    // between barriers (a concurrent reset could clear a peer's counters
    // mid-send).
    c.barrier();
    if (c.rank() == 0) c.reset_traffic();
    c.barrier();
    if (c.rank() == 0) {
      std::vector<double> v(16, 1.0);
      c.send(std::span<const double>(v), 1, 77);
    } else {
      (void)c.recv<double>(0, 77);
    }
    c.barrier();
    const auto t = c.traffic();
    // One payload message of 128 bytes plus barrier bookkeeping (0-byte ctrl
    // messages are counted as messages but add no payload bytes)... barrier
    // here is condvar-based, so exactly one message total.
    EXPECT_GE(t.messages, 1u);
    EXPECT_GE(t.bytes, 128u);
    EXPECT_EQ(t.rank_bytes[0], 128u);
  });
}

TEST(MiniMpi, ExceptionInOneRankPropagates) {
  EXPECT_THROW(
      World::run(3,
                 [](Comm& c) {
                   if (c.rank() == 1) throw std::runtime_error("boom");
                   // Peers block in recv and must be woken by poisoning.
                   (void)c.recv<int>(1, 1);
                 }),
      std::runtime_error);
}

TEST(MiniMpi, ZeroByteMessages) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send_bytes({}, 1, 4);
    } else {
      const auto v = c.recv_bytes(0, 4);
      EXPECT_TRUE(v.empty());
    }
  });
}

TEST(MiniMpi, TryRecvNonBlocking) {
  World::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> out;
      EXPECT_FALSE(c.try_recv_bytes(1, 11, &out));
      c.barrier();  // rank 1 sends before this barrier completes
      c.barrier();
      EXPECT_TRUE(c.try_recv_bytes(1, 11, &out));
      EXPECT_EQ(out.size(), sizeof(int));
    } else {
      c.barrier();
      c.send_value(3, 0, 11);
      c.barrier();
    }
  });
}

}  // namespace
