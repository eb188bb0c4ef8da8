#include "model/diagnostics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "util/math.h"
#include "util/rng.h"

namespace surveyor {
namespace {

/// Draws counts from the model family itself.
std::vector<EvidenceCounts> DrawFromModel(const ModelParams& params,
                                          double prevalence, size_t entities,
                                          uint64_t seed) {
  Rng rng(seed);
  const PoissonRates rates = RatesFromParams(params);
  std::vector<EvidenceCounts> counts(entities);
  for (auto& c : counts) {
    const bool positive = rng.Bernoulli(prevalence);
    c.positive = rng.Poisson(positive ? rates.pos_given_pos : rates.pos_given_neg);
    c.negative = rng.Poisson(positive ? rates.neg_given_pos : rates.neg_given_neg);
  }
  return counts;
}

TEST(DiagnosticsTest, OnModelDataFitsWell) {
  const auto counts = DrawFromModel({0.9, 40.0, 6.0}, 0.3, 1500, 3);
  auto fit = EmLearner().Fit(counts);
  ASSERT_TRUE(fit.ok());
  const ModelDiagnostics diagnostics = DiagnoseFit(counts, *fit);

  // Statement-mass conservation: the M-step matches first moments.
  EXPECT_NEAR(diagnostics.expected_positive_statements,
              diagnostics.observed_positive_statements,
              0.02 * diagnostics.observed_positive_statements + 2.0);
  EXPECT_NEAR(diagnostics.expected_negative_statements,
              diagnostics.observed_negative_statements,
              0.05 * diagnostics.observed_negative_statements + 2.0);
  EXPECT_NEAR(diagnostics.positive_entity_fraction, 0.3, 0.05);
  // On-model data: the binned chi-square stays modest (7 bins, m=1500).
  EXPECT_LT(diagnostics.positive_count_chi2, 60.0);
  EXPECT_TRUE(std::isfinite(diagnostics.log_likelihood));
  EXPECT_NEAR(diagnostics.aic, 6.0 - 2.0 * diagnostics.log_likelihood, 1e-9);
}

TEST(DiagnosticsTest, DetectsOffModelHeterogeneity) {
  // Exposure heterogeneity: positive entities draw from TWO very different
  // rates; the single-rate mixture must show a much larger chi-square than
  // the on-model fit.
  Rng rng(7);
  std::vector<EvidenceCounts> counts;
  for (int i = 0; i < 1500; ++i) {
    EvidenceCounts c;
    if (rng.Bernoulli(0.3)) {
      const double rate = rng.Bernoulli(0.5) ? 150.0 : 8.0;
      c.positive = rng.Poisson(rate);
      c.negative = rng.Poisson(0.5);
    } else {
      c.positive = rng.Poisson(0.3);
      c.negative = rng.Poisson(0.2);
    }
    counts.push_back(c);
  }
  auto fit = EmLearner().Fit(counts);
  ASSERT_TRUE(fit.ok());
  const ModelDiagnostics off_model = DiagnoseFit(counts, *fit);

  const auto clean = DrawFromModel({0.9, 40.0, 6.0}, 0.3, 1500, 3);
  auto clean_fit = EmLearner().Fit(clean);
  ASSERT_TRUE(clean_fit.ok());
  const ModelDiagnostics on_model = DiagnoseFit(clean, *clean_fit);

  EXPECT_GT(off_model.positive_count_chi2, 5 * on_model.positive_count_chi2);
}

TEST(DiagnosticsTest, CountsUndecidedEntities) {
  // Symmetric parameters put zero-count entities exactly at 1/2.
  std::vector<EvidenceCounts> counts = {{5, 0}, {0, 5}, {0, 0}, {0, 0}};
  EmFitResult fit;
  fit.params = {0.9, 10.0, 10.0};
  for (const EvidenceCounts& c : counts) {
    fit.responsibilities.push_back(PosteriorPositive(c, fit.params));
  }
  const ModelDiagnostics diagnostics = DiagnoseFit(counts, fit);
  EXPECT_EQ(diagnostics.undecided_entities, 2);
}

TEST(DiagnosticsTest, ToStringMentionsKeyNumbers) {
  const auto counts = DrawFromModel({0.9, 20.0, 4.0}, 0.4, 200, 11);
  auto fit = EmLearner().Fit(counts);
  ASSERT_TRUE(fit.ok());
  const std::string report = DiagnoseFit(counts, *fit).ToString();
  EXPECT_NE(report.find("LL="), std::string::npos);
  EXPECT_NE(report.find("chi2"), std::string::npos);
  EXPECT_NE(report.find("positive-fraction="), std::string::npos);
}

// Diagnostics as computed before the bin probabilities were hoisted out of
// the entity loop: every entity adds its own responsibility-weighted
// Poisson bin probabilities. Kept as the reference for DiagnoseFit.
struct ReferenceDiagnostics {
  double log_likelihood = 0.0;
  double positive_count_chi2 = 0.0;
  double negative_count_chi2 = 0.0;
};

ReferenceDiagnostics ReferenceDiagnose(
    const std::vector<EvidenceCounts>& counts, const EmFitResult& fit) {
  constexpr int64_t kLo[] = {0, 1, 2, 3, 6, 11, 21};
  constexpr int64_t kHi[] = {0, 1, 2, 5, 10, 20, INT64_MAX};
  constexpr size_t kBins = std::size(kLo);
  auto bin_of = [&](int64_t count) {
    size_t b = 0;
    while (b + 1 < kBins && count > kHi[b]) ++b;
    return b;
  };
  auto bin_probability = [&](double rate, size_t b) {
    double total = 0.0;
    if (kHi[b] == INT64_MAX) {
      for (int64_t k = 0; k < kLo[b]; ++k) total += PoissonPmf(k, rate);
      return std::max(0.0, 1.0 - total);
    }
    for (int64_t k = kLo[b]; k <= kHi[b]; ++k) total += PoissonPmf(k, rate);
    return total;
  };
  auto chi2 = [&](const std::array<double, kBins>& observed,
                  const std::array<double, kBins>& expected) {
    double sum = 0.0;
    for (size_t b = 0; b < kBins; ++b) {
      const double d = observed[b] - expected[b];
      sum += d * d / std::max(expected[b], 1e-9);
    }
    return sum;
  };

  const PoissonRates rates = RatesFromParams(fit.params);
  std::array<double, kBins> observed_pos{}, expected_pos{};
  std::array<double, kBins> observed_neg{}, expected_neg{};
  ReferenceDiagnostics reference;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double r = fit.responsibilities[i];
    const EvidenceCounts& c = counts[i];
    reference.log_likelihood +=
        LogSumExp(std::log(0.5) + LogLikelihoodPositive(c, fit.params),
                  std::log(0.5) + LogLikelihoodNegative(c, fit.params));
    ++observed_pos[bin_of(c.positive)];
    ++observed_neg[bin_of(c.negative)];
    for (size_t b = 0; b < kBins; ++b) {
      expected_pos[b] += r * bin_probability(rates.pos_given_pos, b) +
                         (1.0 - r) * bin_probability(rates.pos_given_neg, b);
      expected_neg[b] += r * bin_probability(rates.neg_given_pos, b) +
                         (1.0 - r) * bin_probability(rates.neg_given_neg, b);
    }
  }
  reference.positive_count_chi2 = chi2(observed_pos, expected_pos);
  reference.negative_count_chi2 = chi2(observed_neg, expected_neg);
  return reference;
}

TEST(DiagnosticsTest, MatchesPerEntityReference) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const ModelParams truth = {rng.Uniform(0.6, 0.95), rng.Uniform(2.0, 60.0),
                               rng.Uniform(0.5, 10.0)};
    const auto counts = DrawFromModel(truth, rng.Uniform(0.1, 0.7),
                                      50 + rng.Index(2000), seed);
    auto fit = EmLearner().Fit(counts);
    ASSERT_TRUE(fit.ok());
    const ModelDiagnostics diagnostics = DiagnoseFit(counts, *fit);
    const ReferenceDiagnostics reference = ReferenceDiagnose(counts, *fit);
    EXPECT_NEAR(diagnostics.positive_count_chi2, reference.positive_count_chi2,
                1e-9 * std::abs(reference.positive_count_chi2))
        << "seed " << seed;
    EXPECT_NEAR(diagnostics.negative_count_chi2, reference.negative_count_chi2,
                1e-9 * std::abs(reference.negative_count_chi2))
        << "seed " << seed;
    // The likelihood is still summed per entity, bit for bit.
    EXPECT_EQ(diagnostics.log_likelihood, reference.log_likelihood);
    EXPECT_EQ(diagnostics.aic, 6.0 - 2.0 * reference.log_likelihood);
  }
}

}  // namespace
}  // namespace surveyor
