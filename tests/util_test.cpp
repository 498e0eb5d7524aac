#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/base64.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace jsrev {
namespace {

TEST(Hash, Deterministic) {
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
  EXPECT_NE(fnv1a64(""), fnv1a64("a"));
}

TEST(Hash, CombineOrderSensitive) {
  const auto a = hash_combine(fnv1a64("x"), fnv1a64("y"));
  const auto b = hash_combine(fnv1a64("y"), fnv1a64("x"));
  EXPECT_NE(a, b);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ForkIndependent) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

TEST(Base64, RoundTrip) {
  for (const std::string s :
       {"", "a", "ab", "abc", "abcd", "hello world", "\x00\xff\x10"}) {
    EXPECT_EQ(base64_decode(base64_encode(s)), s) << s;
  }
}

TEST(Base64, KnownVector) {
  EXPECT_EQ(base64_encode("Man"), "TWFu");
  EXPECT_EQ(base64_encode("Ma"), "TWE=");
  EXPECT_EQ(base64_encode("M"), "TQ==");
  EXPECT_EQ(base64_decode("TWFu"), "Man");
}

TEST(Base64, StrictAcceptsCanonicalForms) {
  // Padded canonical encodings, plus the unpadded final quanta the strict
  // decoder still accepts (2- and 3-char remainders with zero stray bits).
  EXPECT_EQ(base64_decode_strict("TWFu"), "Man");
  EXPECT_EQ(base64_decode_strict("TWE="), "Ma");
  EXPECT_EQ(base64_decode_strict("TQ=="), "M");
  EXPECT_EQ(base64_decode_strict("TWE"), "Ma");
  EXPECT_EQ(base64_decode_strict("TQ"), "M");
  EXPECT_EQ(base64_decode_strict(""), "");
  for (const std::string s : {"", "a", "ab", "abc", "hello world"}) {
    EXPECT_EQ(base64_decode_strict(base64_encode(s)), s) << s;
  }
}

TEST(Base64, StrictRejectsMalformedInput) {
  // Invalid characters anywhere (the lenient decoder skips these).
  EXPECT_FALSE(base64_decode_strict("TW Fu").has_value());
  EXPECT_FALSE(base64_decode_strict("TW\nFu").has_value());
  EXPECT_FALSE(base64_decode_strict("TW$u").has_value());
  // Padding anywhere but the end, or the wrong amount of it.
  EXPECT_FALSE(base64_decode_strict("AB==CD").has_value());
  EXPECT_FALSE(base64_decode_strict("T===").has_value());
  EXPECT_FALSE(base64_decode_strict("TQ=").has_value());
  EXPECT_FALSE(base64_decode_strict("TWFu=").has_value());
  // A final quantum of one character can never carry a whole byte.
  EXPECT_FALSE(base64_decode_strict("TWFuT").has_value());
  EXPECT_FALSE(base64_decode_strict("=").has_value());
  // Nonzero stray bits in the final quantum: atob("QR==") throws in
  // browsers ('R' leaves 0b0001 unconsumed), the lenient decoder shrugs.
  EXPECT_FALSE(base64_decode_strict("QR==").has_value());
  EXPECT_FALSE(base64_decode_strict("QUJDRR==").has_value());
}

TEST(StringUtil, ParseU64) {
  std::uint64_t v = 99;
  EXPECT_TRUE(parse_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));  // UINT64_MAX
  EXPECT_EQ(v, 18446744073709551615ull);
  // Rejections leave *out untouched.
  v = 7;
  EXPECT_FALSE(parse_u64("", &v));
  EXPECT_FALSE(parse_u64("18446744073709551616", &v));  // UINT64_MAX + 1
  EXPECT_FALSE(parse_u64("-1", &v));
  EXPECT_FALSE(parse_u64("+1", &v));
  EXPECT_FALSE(parse_u64(" 1", &v));
  EXPECT_FALSE(parse_u64("1 ", &v));
  EXPECT_FALSE(parse_u64("12x", &v));
  EXPECT_FALSE(parse_u64("0x10", &v));
  EXPECT_EQ(v, 7u);
}

TEST(StringUtil, ParseSizeAndPositiveInt) {
  std::size_t n = 0;
  EXPECT_TRUE(parse_size("4096", &n));
  EXPECT_EQ(n, 4096u);
  EXPECT_FALSE(parse_size("4096q", &n));
  EXPECT_FALSE(parse_size("", &n));

  int i = 0;
  EXPECT_TRUE(parse_positive_int("17", &i));
  EXPECT_EQ(i, 17);
  EXPECT_FALSE(parse_positive_int("0", &i));  // positive means > 0
  EXPECT_FALSE(parse_positive_int("-3", &i));
  EXPECT_FALSE(parse_positive_int("2147483648", &i));  // INT_MAX + 1
  EXPECT_TRUE(parse_positive_int("2147483647", &i));
  EXPECT_EQ(i, 2147483647);
}

TEST(StringUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "->"), "a->b->c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, JsEscape) {
  EXPECT_EQ(js_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(js_escape("a\nb"), "a\\nb");
  EXPECT_EQ(js_escape("a\\b"), "a\\\\b");
}

TEST(StringUtil, JsEscapeControlBytes) {
  // Named short escapes.
  EXPECT_EQ(js_escape("a\bb"), "a\\bb");
  EXPECT_EQ(js_escape("a\fb"), "a\\fb");
  EXPECT_EQ(js_escape("a\vb"), "a\\vb");
  EXPECT_EQ(js_escape("a\rb"), "a\\rb");
  EXPECT_EQ(js_escape("a\tb"), "a\\tb");
  // NUL uses \x00 (not \0, whose meaning depends on the following digit).
  EXPECT_EQ(js_escape(std::string("a\0b", 3)), "a\\x00b");
  // Remaining control bytes and DEL get two-digit hex escapes.
  EXPECT_EQ(js_escape("\x01"), "\\x01");
  EXPECT_EQ(js_escape("\x1f"), "\\x1f");
  EXPECT_EQ(js_escape("\x7f"), "\\x7f");
  // Printable ASCII is untouched.
  EXPECT_EQ(js_escape(" ~azAZ09"), " ~azAZ09");
}

TEST(StringUtil, Fmt) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(99.95, 1), "100.0");
}

TEST(Table, RendersAllCells) {
  Table t({"col1", "c2"});
  t.add_row({"a", "b"});
  t.add_row({"longer", "x"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("col1"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("b"), std::string::npos);
}

TEST(Table, Csv) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleAfterSubmit) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter++; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForZeroAndTinyN) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  // n < threads: every index still runs exactly once.
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ThrowingSubmittedTaskDoesNotDeadlockWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&counter] { counter++; });
  }
  // wait_idle must return (not deadlock) and surface the task's exception.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(counter.load(), 10);
  // The pool stays usable and the error does not resurface.
  pool.submit([&counter] { counter++; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) {
                                     throw std::runtime_error("item boom");
                                   }
                                 }),
               std::runtime_error);
  // Still usable afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(20, [&](std::size_t) { counter++; });
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ParallelForMaxWorkersCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(500, [&](std::size_t i) { hits[i]++; }, /*max_workers=*/3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForThreads, SerialWidthRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for_threads(1, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForThreads, ParallelWidthCoversAllIndices) {
  std::vector<std::atomic<int>> hits(777);
  parallel_for_threads(4, 777, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(6), 6u);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(t.elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace jsrev
