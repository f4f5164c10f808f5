#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/clock.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace qucad {
namespace {

TEST(Require, ThrowsOnViolation) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "boom"), PreconditionError);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mean(xs), 5.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BernoulliClampsOutOfRange) {
  Rng rng(17);
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, IndexBounds) {
  Rng rng(19);
  for (int i = 0; i < 500; ++i) EXPECT_LT(rng.index(7), 7u);
  EXPECT_THROW(rng.index(0), PreconditionError);
}

TEST(Rng, WeightedIndexFavorsHeavyWeights) {
  Rng rng(23);
  std::vector<double> w{0.0, 0.0, 10.0, 0.1};
  int heavy = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t k = rng.weighted_index(w);
    EXPECT_TRUE(k == 2 || k == 3);
    if (k == 2) ++heavy;
  }
  EXPECT_GT(heavy, 1800);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(29);
  const auto perm = rng.permutation(20);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 19u);
}

TEST(Rng, ForkIndependence) {
  Rng parent(31);
  Rng child = parent.fork();
  // The fork must not replay the parent's stream.
  EXPECT_NE(parent.uniform(), child.uniform());
}

TEST(Stats, MeanVarianceMedian) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  // Bessel-corrected sample variance: sum of squared deviations
  // (2.25 + 0.25 + 0.25 + 2.25) = 5, over N-1 = 3.
  EXPECT_DOUBLE_EQ(variance(xs), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
}

TEST(Stats, VarianceIsBesselCorrected) {
  // Hand-computed: mean 4, deviations {-2, 0, 2}, SS = 8, n-1 = 2.
  const std::vector<double> xs{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
  // A single point carries no spread information: exactly 0, not 0/0.
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{7.0}), 0.0);
}

TEST(Stats, EmptyInputsThrow) {
  // One contract for every reduction: empty input is a caller bug, not a
  // silent 0 (which reads as a perfect latency / flat gradient upstream).
  EXPECT_THROW(mean({}), PreconditionError);
  EXPECT_THROW(variance({}), PreconditionError);
  EXPECT_THROW(stddev({}), PreconditionError);
  EXPECT_THROW(median({}), PreconditionError);
  EXPECT_THROW(min_value({}), PreconditionError);
  EXPECT_THROW(max_value({}), PreconditionError);
  EXPECT_THROW(argmax({}), PreconditionError);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVariance) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, CountOver) {
  const std::vector<double> xs{0.1, 0.5, 0.9, 0.81};
  EXPECT_EQ(count_over(xs, 0.8), 2u);
  EXPECT_EQ(count_over(xs, 0.05), 4u);
}

TEST(Stats, ArgmaxFirstOfTies) {
  const std::vector<double> xs{0.2, 0.9, 0.9, 0.1};
  EXPECT_EQ(argmax(xs), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  ThreadPool::global().parallel_for(
      1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(
      ThreadPool::global().parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 57) throw std::runtime_error("task failed");
          }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneIterations) {
  int count = 0;
  ThreadPool::global().parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  ThreadPool::global().parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(Table, FormatsAlignedColumns) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| xx "), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, PercentFormatting) {
  EXPECT_EQ(fmt_pct(0.7567), "75.67%");
  EXPECT_EQ(fmt_pct_signed(0.1632), "+16.32%");
  EXPECT_EQ(fmt_pct_signed(-0.0065), "-0.65%");
}

TEST(Status, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status status = Status::invalid_argument("bad batch");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad batch");
  EXPECT_EQ(status.to_string(), "invalid_argument: bad batch");
  EXPECT_EQ(Status::unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::failed_precondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::not_found("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::resource_exhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::resource_exhausted("x").to_string(),
            "resource_exhausted: x");
  EXPECT_EQ(Status::deadline_exceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::deadline_exceeded("x").to_string(),
            "deadline_exceeded: x");
}

TEST(Status, DataLossFactoryAndFromCode) {
  const Status loss = Status::data_loss("crc mismatch");
  EXPECT_EQ(loss.code(), StatusCode::kDataLoss);
  EXPECT_EQ(loss.to_string(), "data_loss: crc mismatch");

  // from_code is the wire decoder's rebuild path: any transported non-OK
  // (code, message) pair must round-trip, and an OK code must collapse to
  // the singleton OK status with the message discarded.
  const Status rebuilt =
      Status::from_code(StatusCode::kDataLoss, loss.message());
  EXPECT_EQ(rebuilt.code(), loss.code());
  EXPECT_EQ(rebuilt.message(), loss.message());
  const Status ok = Status::from_code(StatusCode::kOk, "ignored");
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.to_string(), "ok");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOr, HoldsError) {
  const StatusOr<int> result = Status::not_found("no entry");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
  EXPECT_THROW(result.value(), PreconditionError);
}

TEST(StatusOr, RejectsOkStatus) {
  EXPECT_THROW(StatusOr<int>{Status{}}, PreconditionError);
}

TEST(StatusOr, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(9);
  ASSERT_TRUE(result.ok());
  const std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 9);
}

TEST(ManualClock, AdvancesOnlyWhenTold) {
  ManualClock clock;
  const Clock::TimePoint t0 = clock.now();
  EXPECT_EQ(clock.now(), t0);
  clock.advance(std::chrono::milliseconds(5));
  EXPECT_EQ(clock.now() - t0, Clock::Duration(std::chrono::milliseconds(5)));
  clock.advance(std::chrono::microseconds(3));
  EXPECT_EQ(clock.now() - t0,
            Clock::Duration(std::chrono::microseconds(5003)));
}

TEST(SystemClock, IsMonotonic) {
  const Clock& clock = Clock::system();
  const Clock::TimePoint a = clock.now();
  const Clock::TimePoint b = clock.now();
  EXPECT_LE(a, b);
}

TEST(BoundedQueue, PushPopRoundTrip) {
  BoundedQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2), PushResult::kOk);
  EXPECT_EQ(queue.size(), 2u);
  const std::vector<int> batch = queue.collect(8);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, ShedsAtCapacityInsteadOfBlocking) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2), PushResult::kOk);
  EXPECT_EQ(queue.try_push(3), PushResult::kFull);
  EXPECT_EQ(queue.size(), 2u);  // the rejected item was never queued
  // Draining frees capacity again.
  (void)queue.collect(1);
  EXPECT_EQ(queue.try_push(3), PushResult::kOk);
}

TEST(BoundedQueue, CollectTakesAtMostMaxItems) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(queue.try_push(i), PushResult::kOk);
  }
  EXPECT_EQ(queue.collect(3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.collect(3), (std::vector<int>{3, 4}));
}

TEST(BoundedQueue, CloseRejectsProducersAndDrainsConsumer) {
  BoundedQueue<int> queue(4);
  ASSERT_EQ(queue.try_push(7), PushResult::kOk);
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.try_push(8), PushResult::kClosed);
  // Queued work is still drained...
  EXPECT_EQ(queue.collect(4), (std::vector<int>{7}));
  // ...and an empty closed queue signals shutdown with an empty batch.
  EXPECT_TRUE(queue.collect(4).empty());
}

TEST(BoundedQueue, ConcurrentProducersNeverExceedCapacity) {
  constexpr std::size_t kCapacity = 8;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> queue(kCapacity);
  std::atomic<int> accepted{0};
  std::atomic<int> shed{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (queue.try_push(i) == PushResult::kOk) {
          accepted.fetch_add(1);
        } else {
          shed.fetch_add(1);
        }
      }
    });
  }
  int drained = 0;
  std::thread consumer([&] {
    for (;;) {
      const std::vector<int> batch = queue.collect(kCapacity);
      drained += static_cast<int>(batch.size());
      ASSERT_LE(batch.size(), kCapacity);
      if (batch.empty() && done.load()) return;
      if (done.load() && queue.size() == 0) return;
    }
  });
  for (std::thread& producer : producers) producer.join();
  done.store(true);
  queue.close();
  consumer.join();
  // Drain anything the consumer exited before taking.
  drained +=
      static_cast<int>(queue.collect(kProducers * kPerProducer).size());
  EXPECT_EQ(drained, accepted.load());
  EXPECT_EQ(accepted.load() + shed.load(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace qucad
