// Tests for src/ml: linear regression, P2 quantile, Holt forecaster,
// latency model.

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "ml/forecaster.h"
#include "ml/latency_model.h"
#include "ml/linreg.h"

namespace scads {
namespace {

// ---------------------------------------------------------------- LinReg --

TEST(LinRegTest, RecoversExactLine) {
  OnlineLinearRegression model(2);
  // y = 3 + 2x
  for (double x = 0; x < 10; x += 0.5) model.Observe({1.0, x}, 3 + 2 * x);
  EXPECT_NEAR(model.Predict({1.0, 20.0}), 43.0, 1e-6);
  auto weights = model.Weights();
  EXPECT_NEAR(weights[0], 3.0, 1e-6);
  EXPECT_NEAR(weights[1], 2.0, 1e-6);
}

TEST(LinRegTest, HandlesNoise) {
  OnlineLinearRegression model(2);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    double x = rng.NextDouble() * 10;
    model.Observe({1.0, x}, 5 - 1.5 * x + rng.Normal(0, 0.5));
  }
  EXPECT_NEAR(model.Predict({1.0, 4.0}), 5 - 1.5 * 4, 0.1);
}

TEST(LinRegTest, QuadraticBasis) {
  OnlineLinearRegression model(3);
  for (double x = -5; x <= 5; x += 0.25) model.Observe({1.0, x, x * x}, 1 + x * x);
  EXPECT_NEAR(model.Predict({1.0, 3.0, 9.0}), 10.0, 1e-6);
}

TEST(LinRegTest, EmptyModelPredictsZero) {
  OnlineLinearRegression model(2);
  EXPECT_DOUBLE_EQ(model.Predict({1.0, 5.0}), 0.0);
  EXPECT_EQ(model.sample_count(), 0);
}

TEST(LinRegTest, DegenerateFeatureDoesNotExplode) {
  OnlineLinearRegression model(2);
  for (int i = 0; i < 10; ++i) model.Observe({1.0, 0.0}, 7.0);  // x column all zero
  double prediction = model.Predict({1.0, 100.0});
  EXPECT_TRUE(std::isfinite(prediction));
  EXPECT_NEAR(model.Predict({1.0, 0.0}), 7.0, 0.01);
}

// ------------------------------------------------------------ Forecaster --

TEST(ForecasterTest, ConstantSeriesForecastsConstant) {
  HoltForecaster forecaster;
  for (int i = 0; i < 50; ++i) forecaster.Observe(100);
  EXPECT_NEAR(forecaster.Forecast(10), 100, 1);
  EXPECT_NEAR(forecaster.trend(), 0, 0.5);
}

TEST(ForecasterTest, LinearTrendExtrapolates) {
  HoltForecaster forecaster(0.8, 0.8);
  for (int i = 0; i < 100; ++i) forecaster.Observe(10.0 * i);
  // Next values should continue climbing ~10/step.
  EXPECT_NEAR(forecaster.Forecast(5), 10.0 * 104, 30);
  EXPECT_GT(forecaster.trend(), 8);
}

TEST(ForecasterTest, ForecastNeverNegative) {
  HoltForecaster forecaster;
  forecaster.Observe(100);
  forecaster.Observe(10);  // steep decline
  forecaster.Observe(1);
  EXPECT_GE(forecaster.Forecast(50), 0.0);
}

TEST(ForecasterTest, GrowthDetectedEarly) {
  // Doubling sequence: the forecast k steps out must exceed the current
  // observation — that margin is what buys provisioning lead time.
  HoltForecaster forecaster;
  double value = 100;
  for (int i = 0; i < 20; ++i) {
    forecaster.Observe(value);
    value *= 1.3;
  }
  EXPECT_GT(forecaster.Forecast(4), forecaster.level() * 1.5);
}

// ---------------------------------------------------------- LatencyModel --

TEST(LatencyModelTest, LearnsQueueingCurve) {
  LatencyModel model;
  // Synthetic M/M/1-ish curve: latency = 1000/(1 - rate/5000) us.
  for (double rate = 100; rate <= 4500; rate += 100) {
    double latency = 1000.0 / (1.0 - rate / 5000.0);
    model.Observe(rate, static_cast<Duration>(latency));
  }
  // Interpolation quality: within 25% at mid-range.
  double expected = 1000.0 / (1.0 - 2000.0 / 5000.0);
  EXPECT_NEAR(static_cast<double>(model.Predict(2000)), expected, expected * 0.25);
  // Monotone increasing in load at the high end.
  EXPECT_GT(model.Predict(4400), model.Predict(3000));
}

TEST(LatencyModelTest, NeverExtrapolatesOptimism) {
  LatencyModel model;
  for (double rate = 100; rate <= 1000; rate += 100) {
    model.Observe(rate, 500);
  }
  // Far beyond the observed envelope: prediction must be pessimistic (>=
  // worst observed).
  EXPECT_GE(model.Predict(10000), 500);
}

TEST(LatencyModelTest, MaxRateWithinBoundInvertsTheCurve) {
  LatencyModel model;
  for (double rate = 100; rate <= 4500; rate += 100) {
    double latency = 1000.0 / (1.0 - rate / 5000.0);
    model.Observe(rate, static_cast<Duration>(latency));
  }
  double max_rate = model.MaxRateWithinBound(2000);  // latency <= 2ms
  // True inversion: rate = 5000 * (1 - 1000/2000) = 2500.
  EXPECT_NEAR(max_rate, 2500, 600);
  // Tighter bound -> lower sustainable rate.
  EXPECT_LT(model.MaxRateWithinBound(1500), max_rate);
}

TEST(LatencyModelTest, MinNodesScalesWithRate) {
  LatencyModel model;
  for (double rate = 100; rate <= 4000; rate += 100) {
    double latency = 1000.0 / (1.0 - rate / 5000.0);
    model.Observe(rate, static_cast<Duration>(latency));
  }
  int small = model.MinNodesForSla(10000, 2000, 1000);
  int large = model.MinNodesForSla(100000, 2000, 1000);
  EXPECT_GE(small, 3);
  EXPECT_NEAR(static_cast<double>(large) / small, 10.0, 3.0);
}

TEST(LatencyModelTest, FallbackBeforeData) {
  LatencyModel model;
  EXPECT_EQ(model.Predict(1000), 0);
  EXPECT_EQ(model.MinNodesForSla(10000, 1000, 2000), 5);  // 10000/2000
}

}  // namespace
}  // namespace scads
