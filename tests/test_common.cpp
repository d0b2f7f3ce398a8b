#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace rc = rem::common;

TEST(Units, DbRoundTrip) {
  for (double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 20.0}) {
    EXPECT_NEAR(rc::lin_to_db(rc::db_to_lin(db)), db, 1e-12);
  }
}

TEST(Units, DbmWatt) {
  EXPECT_NEAR(rc::dbm_to_watt(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(rc::dbm_to_watt(30.0), 1.0, 1e-12);
  EXPECT_NEAR(rc::watt_to_dbm(1e-3), 0.0, 1e-9);
}

TEST(Units, SpeedConversions) {
  EXPECT_NEAR(rc::kmh_to_mps(360.0), 100.0, 1e-12);
  EXPECT_NEAR(rc::mps_to_kmh(100.0), 360.0, 1e-12);
}

TEST(Units, DopplerMatchesPaperNumbers) {
  // §2: Tc ≈ 20 ms for a vehicle at 60 km/h under 900 MHz.
  const double tc =
      rc::coherence_time_s(rc::kmh_to_mps(60.0), 900e6);
  EXPECT_NEAR(tc * 1e3, 20.0, 1.0);
  // §3.1: Tc in [1.16 ms, 6.18 ms] for f in [874.2, 2665] MHz and
  // v in [200, 350] km/h.
  const double tc_min =
      rc::coherence_time_s(rc::kmh_to_mps(350.0), 2665e6);
  const double tc_max =
      rc::coherence_time_s(rc::kmh_to_mps(200.0), 874.2e6);
  EXPECT_NEAR(tc_min * 1e3, 1.16, 0.05);
  EXPECT_NEAR(tc_max * 1e3, 6.18, 0.05);
}

TEST(Units, StaticClientHasInfiniteCoherence) {
  EXPECT_TRUE(std::isinf(rc::coherence_time_s(0.0, 2e9)));
}

TEST(Units, ShannonCapacity) {
  EXPECT_NEAR(rc::shannon_capacity_bps(1.0, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(rc::shannon_capacity_bps(20e6, 3.0), 40e6, 1.0);
}

TEST(Rng, Deterministic) {
  rc::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, ComplexGaussianVariance) {
  rc::Rng rng(7);
  double p = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) p += std::norm(rng.complex_gaussian(2.0));
  EXPECT_NEAR(p / n, 2.0, 0.1);
}

TEST(Rng, ForkIndependence) {
  rc::Rng a(1);
  rc::Rng child = a.fork();
  // Child stream differs from parent's continued stream.
  EXPECT_NE(child.uniform(0, 1), a.uniform(0, 1));
}

TEST(Rng, BernoulliRate) {
  rc::Rng rng(3);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Summary, BasicStats) {
  rc::Summary s;
  s.add_all({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(Summary, PercentileInterpolation) {
  rc::Summary s;
  s.add_all({0, 10});
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
}

TEST(Summary, CdfAt) {
  rc::Summary s;
  s.add_all({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(Summary, EmpiricalCdfMonotone) {
  std::vector<double> xs;
  rc::Rng rng(9);
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.gaussian());
  const auto cdf = rc::empirical_cdf(xs, 20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].fraction, cdf[i].fraction);
    EXPECT_LT(cdf[i - 1].value, cdf[i].value);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(Summary, EmptyInputs) {
  rc::Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_THROW(s.min(), std::runtime_error);
  EXPECT_THROW(s.max(), std::runtime_error);
  EXPECT_THROW(s.percentile(50), std::runtime_error);
  EXPECT_TRUE(rc::empirical_cdf({}, 10).empty());
}

TEST(ThreadPool, RunsAllSubmittedJobs) {
  std::atomic<int> count{0};
  {
    rc::ThreadPool pool(4);
    for (int i = 0; i < 100; ++i)
      pool.submit([&count] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    rc::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&count] { count.fetch_add(1); });
    // No wait_idle: join-on-destruction must still run everything queued.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 257;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  rc::parallel_for(n, 8, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, SerialFallbackRunsOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  rc::parallel_for(4, 1, [&caller](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelFor, PropagatesFirstException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(
      rc::parallel_for(16, 4,
                       [&completed](std::size_t i) {
                         if (i == 5) throw std::runtime_error("boom");
                         completed.fetch_add(1);
                       }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // all non-throwing indices still ran
}

TEST(ParallelFor, ZeroItemsIsNoop) {
  rc::parallel_for(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ZeroThreadsMeansHardwareDefault) {
  rc::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), rc::ThreadPool::default_threads());
  EXPECT_GE(rc::ThreadPool::default_threads(), 1u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, SingleWorkerRunsJobsOffTheCallingThread) {
  rc::ThreadPool pool(1);
  ASSERT_EQ(pool.num_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::thread::id worker;
  for (int i = 0; i < 4; ++i)
    pool.submit([&] {
      worker = std::this_thread::get_id();
      ran.fetch_add(1);
    });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_NE(worker, caller);
}

TEST(ParallelFor, SingleItemDegradesToSerial) {
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  rc::parallel_for(1, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SerialPathPropagatesFirstException) {
  // num_threads == 1 takes the plain-loop path; it must match the pool
  // path's contract — finish the remaining indices, then rethrow the
  // first failure.
  int completed = 0;
  try {
    rc::parallel_for(8, 1, [&completed](std::size_t i) {
      if (i == 2 || i == 5) throw std::invalid_argument("boom " +
                                                        std::to_string(i));
      ++completed;
    });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "boom 2");  // first, not last
  }
  EXPECT_EQ(completed, 6);
}
