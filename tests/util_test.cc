#include <cmath>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace farmer {
namespace {

TEST(RngTest, DeterministicStream) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100 && !differs; ++i) {
    differs = a2.NextU64() != c.NextU64();
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, NextBelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInt(-1, 1);
    EXPECT_GE(v, -1);
    EXPECT_LE(v, 1);
    saw_lo |= v == -1;
    saw_hi |= v == 1;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(9);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(d.Expired());
  }
}

TEST(DeadlineTest, ExpiresAfterDuration) {
  Deadline d = Deadline::After(0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // The throttle checks the clock every 256 calls; loop enough times.
  bool expired = false;
  for (int i = 0; i < 1000 && !expired; ++i) expired = d.Expired();
  EXPECT_TRUE(expired);
  // Once expired, stays expired.
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, NonPositiveMeansNever) {
  Deadline d = Deadline::After(0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(d.Expired());
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double t1 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.015);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), t1);
  EXPECT_NEAR(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1e3, 5.0);
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status s = Status::InvalidArgument("bad row");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_FALSE(s.IsIoError());
  EXPECT_EQ(s.message(), "bad row");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad row");
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::NotFound("y").IsNotFound());
}

TEST(JsonTest, ParsesNestedValuesAndDecodesEscapes) {
  json::Value v;
  ASSERT_TRUE(json::Parse(
      " {\"a\": [1, -2.5e3, true, null], \"s\": \"x\\u00e9\\n\\u0001\"} ",
      &v));
  ASSERT_EQ(v.type, json::Value::Type::kObject);
  const json::Value* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_DOUBLE_EQ(a->array[1].number, -2500.0);
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].type, json::Value::Type::kNull);
  ASSERT_NE(v.Find("s"), nullptr);
  EXPECT_EQ(v.Find("s")->string, "x\xc3\xa9\n\x01");
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_EQ(a->Find("a"), nullptr);  // Not an object.
}

TEST(JsonTest, RejectsWhatTheStrictGrammarForbids) {
  const std::string nested_ok(json::kMaxDepth + 1, '[');
  const std::string too_deep(json::kMaxDepth + 2, '[');
  json::Value v;
  EXPECT_TRUE(json::Parse(nested_ok + std::string(json::kMaxDepth + 1, ']'),
                          &v));
  for (const std::string& bad : {
           too_deep + std::string(json::kMaxDepth + 2, ']'),
           std::string("{\"k\":1,\"k\":2}"),     // Duplicate key.
           std::string("\"raw\ttab\""),           // Raw control byte.
           std::string("1e999"),                  // Not finite.
           std::string("\"\\ud800\""),             // Surrogate escape.
           std::string("{\"a\":1} x"),             // Trailing bytes.
           std::string("[1,]"), std::string("{\"a\"}"), std::string(""),
       }) {
    EXPECT_FALSE(json::Parse(bad, &v)) << bad;
  }
}

}  // namespace
}  // namespace farmer
