#include <gtest/gtest.h>

#include "funcs/fft.hpp"
#include "funcs/textgen.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scsq::funcs {
namespace {

void expect_close(const CVec& a, const CVec& b, double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "index " << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "index " << i;
  }
}

TEST(Fft, SizeOneIsIdentity) {
  auto out = fft({5.0});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].real(), 5.0);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  auto out = fft({1.0, 0.0, 0.0, 0.0});
  for (const auto& c : out) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantSignalConcentratesAtDc) {
  auto out = fft({1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(out[0].real(), 8.0, 1e-12);
  for (std::size_t k = 1; k < out.size(); ++k) {
    EXPECT_NEAR(std::abs(out[k]), 0.0, 1e-12);
  }
}

TEST(Fft, MatchesNaiveDftOnRandomSignals) {
  util::Rng rng(99);
  for (std::size_t n : {2u, 4u, 8u, 16u, 64u, 256u}) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    expect_close(fft(x), naive_dft(x), 1e-7 * static_cast<double>(n));
  }
}

TEST(Fft, LinearityProperty) {
  util::Rng rng(7);
  std::vector<double> x(32), y(32), z(32);
  for (std::size_t i = 0; i < 32; ++i) {
    x[i] = rng.uniform(-1, 1);
    y[i] = rng.uniform(-1, 1);
    z[i] = 2.0 * x[i] + 3.0 * y[i];
  }
  auto fx = fft(x), fy = fft(y), fz = fft(z);
  for (std::size_t k = 0; k < 32; ++k) {
    auto expect = 2.0 * fx[k] + 3.0 * fy[k];
    EXPECT_NEAR(std::abs(fz[k] - expect), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalProperty) {
  util::Rng rng(3);
  std::vector<double> x(128);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = rng.uniform(-1, 1);
    time_energy += v * v;
  }
  double freq_energy = 0.0;
  for (const auto& c : fft(x)) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / 128.0, time_energy, 1e-9);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1000));
}

TEST(OddEven, SplitAndSizes) {
  std::vector<double> x{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(even(x), (std::vector<double>{0, 2, 4, 6}));
  EXPECT_EQ(odd(x), (std::vector<double>{1, 3, 5, 7}));
}

TEST(OddEven, EmptyAndSingleton) {
  EXPECT_TRUE(odd({}).empty());
  EXPECT_TRUE(even({}).empty());
  EXPECT_EQ(even({9.0}), (std::vector<double>{9.0}));
  EXPECT_TRUE(odd({9.0}).empty());
}

TEST(RadixCombine, ReconstructsFullFft) {
  // The paper's radix2 identity: combining fft(even(x)) and fft(odd(x))
  // yields fft(x).
  util::Rng rng(42);
  for (std::size_t n : {2u, 8u, 64u, 512u}) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-1, 1);
    auto combined = radix_combine(fft(even(x)), fft(odd(x)));
    expect_close(combined, fft(x), 1e-7 * static_cast<double>(n));
  }
}

TEST(TextGen, FilenameTable) {
  EXPECT_EQ(filename_for(1), "lofar_obs_1.log");
  EXPECT_EQ(filename_for(999), "lofar_obs_999.log");
}

TEST(TextGen, ContentDeterministic) {
  auto a = file_lines("lofar_obs_7.log");
  auto b = file_lines("lofar_obs_7.log");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
}

TEST(TextGen, DifferentFilesDiffer) {
  EXPECT_NE(file_lines("lofar_obs_1.log"), file_lines("lofar_obs_2.log"));
}

TEST(TextGen, GrepFindsOnlyMatchingLines) {
  auto matches = grep_file("pulsar", "lofar_obs_3.log");
  for (const auto& line : matches) {
    EXPECT_TRUE(util::contains(line, "pulsar")) << line;
  }
  // Cross-check against a manual scan.
  std::size_t expected = 0;
  for (const auto& line : file_lines("lofar_obs_3.log")) {
    if (util::contains(line, "pulsar")) ++expected;
  }
  EXPECT_EQ(matches.size(), expected);
}

TEST(TextGen, GrepNoMatches) {
  EXPECT_TRUE(grep_file("zebra", "lofar_obs_1.log").empty());
}

// The grep query's 50 files, byte for byte: a digest of every line
// pins the generator's draw sequence, so every reader of the corpus
// (file_lines, grep_file, scan_file) keeps producing the same text.
TEST(TextGen, CorpusOfTheGrepQueryIsPinned) {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t bytes = 0;
  for (std::int64_t i = 1; i <= 50; ++i) {
    for (const auto& line : file_lines(filename_for(i))) {
      for (const unsigned char c : line + '\n') {
        hash ^= c;
        hash *= 1099511628211ull;
      }
      bytes += line.size();
    }
  }
  EXPECT_EQ(bytes, 153007u);
  EXPECT_EQ(hash, 0x282ab92171282971ull);
  EXPECT_EQ(file_lines("lofar_obs_1.log").front(), "radio epoch sky sky fft flux noise cluster");
}

// The one-pass scan the grep operators run agrees with the two readers
// it replaced: its byte count is the summed size of file_lines, and its
// matches are grep_file's (and a plain filter of file_lines) in order.
TEST(TextGen, ScanFileMatchesTheTwoPassReaders) {
  for (const char* pattern : {"pulsar", "ea"}) {
    for (std::int64_t i = 1; i <= 50; ++i) {
      const std::string file = filename_for(i);
      const auto lines = file_lines(file);
      std::uint64_t bytes = 0;
      std::vector<std::string> filtered;
      for (const auto& line : lines) {
        bytes += line.size();
        if (util::contains(line, pattern)) filtered.push_back(line);
      }
      const GrepScan scan = scan_file(pattern, file);
      EXPECT_EQ(scan.scanned_bytes, bytes) << file;
      EXPECT_EQ(scan.matches, grep_file(pattern, file)) << file << " " << pattern;
      EXPECT_EQ(scan.matches, filtered) << file << " " << pattern;
    }
  }
}

}  // namespace
}  // namespace scsq::funcs
