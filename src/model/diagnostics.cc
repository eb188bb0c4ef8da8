#include "model/diagnostics.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/logging.h"
#include "util/math.h"
#include "util/profile_tag.h"
#include "util/string_util.h"

namespace surveyor {
namespace {

// Histogram bins over statement counts: [lo, hi] inclusive.
struct Bin {
  int64_t lo;
  int64_t hi;
};
constexpr Bin kBins[] = {{0, 0},  {1, 1},   {2, 2},          {3, 5},
                         {6, 10}, {11, 20}, {21, INT64_MAX}};
constexpr size_t kNumBins = std::size(kBins);

size_t BinIndex(int64_t count) {
  for (size_t b = 0; b < kNumBins; ++b) {
    if (count >= kBins[b].lo && count <= kBins[b].hi) return b;
  }
  return kNumBins - 1;
}

// Probability that a Poisson(rate) draw lands in bin b.
double PoissonBinProbability(double rate, size_t b) {
  // Sum the pmf; for the open-ended last bin use the complement.
  if (kBins[b].hi == INT64_MAX) {
    double below = 0.0;
    for (int64_t k = 0; k < kBins[b].lo; ++k) below += PoissonPmf(k, rate);
    return std::max(0.0, 1.0 - below);
  }
  double total = 0.0;
  for (int64_t k = kBins[b].lo; k <= kBins[b].hi; ++k) {
    total += PoissonPmf(k, rate);
  }
  return total;
}

double ChiSquare(const std::array<double, kNumBins>& observed,
                 const std::array<double, kNumBins>& expected) {
  double chi2 = 0.0;
  for (size_t b = 0; b < kNumBins; ++b) {
    const double e = std::max(expected[b], 1e-9);
    const double d = observed[b] - expected[b];
    chi2 += d * d / e;
  }
  return chi2;
}

}  // namespace

ModelDiagnostics DiagnoseFit(const std::vector<EvidenceCounts>& counts,
                             const EmFitResult& fit) {
  SURVEYOR_PROFILE_SCOPE("diagnose");
  SURVEYOR_CHECK_EQ(counts.size(), fit.responsibilities.size());
  ModelDiagnostics diagnostics;
  const PoissonRates rates = RatesFromParams(fit.params);
  const double log_half = std::log(0.5);

  std::array<double, kNumBins> observed_pos{}, expected_pos{};
  std::array<double, kNumBins> observed_neg{}, expected_neg{};
  // Σr and Σ(1−r): the expected bin counts are linear in the
  // responsibilities, so the bin probabilities are computed once per fit.
  double positive_mass = 0.0, negative_mass = 0.0;

  for (size_t i = 0; i < counts.size(); ++i) {
    const double r = fit.responsibilities[i];
    const EvidenceCounts& c = counts[i];

    diagnostics.log_likelihood +=
        LogSumExp(log_half + LogLikelihoodPositive(c, fit.params),
                  log_half + LogLikelihoodNegative(c, fit.params));
    diagnostics.observed_positive_statements += static_cast<double>(c.positive);
    diagnostics.observed_negative_statements += static_cast<double>(c.negative);
    diagnostics.expected_positive_statements +=
        r * rates.pos_given_pos + (1.0 - r) * rates.pos_given_neg;
    diagnostics.expected_negative_statements +=
        r * rates.neg_given_pos + (1.0 - r) * rates.neg_given_neg;
    positive_mass += r;
    negative_mass += 1.0 - r;
    if (std::abs(r - 0.5) < 1e-6) ++diagnostics.undecided_entities;

    ++observed_pos[BinIndex(c.positive)];
    ++observed_neg[BinIndex(c.negative)];
  }
  for (size_t b = 0; b < kNumBins; ++b) {
    expected_pos[b] =
        positive_mass * PoissonBinProbability(rates.pos_given_pos, b) +
        negative_mass * PoissonBinProbability(rates.pos_given_neg, b);
    expected_neg[b] =
        positive_mass * PoissonBinProbability(rates.neg_given_pos, b) +
        negative_mass * PoissonBinProbability(rates.neg_given_neg, b);
  }
  diagnostics.positive_entity_fraction = positive_mass;
  if (!counts.empty()) {
    diagnostics.positive_entity_fraction /= static_cast<double>(counts.size());
  }
  diagnostics.aic = 2.0 * 3.0 - 2.0 * diagnostics.log_likelihood;
  diagnostics.positive_count_chi2 = ChiSquare(observed_pos, expected_pos);
  diagnostics.negative_count_chi2 = ChiSquare(observed_neg, expected_neg);
  return diagnostics;
}

std::string ModelDiagnostics::ToString() const {
  return StrFormat(
      "LL=%.1f AIC=%.1f C+ obs/exp=%.0f/%.0f C- obs/exp=%.0f/%.0f "
      "positive-fraction=%.3f undecided=%d chi2(C+)=%.1f chi2(C-)=%.1f",
      log_likelihood, aic, observed_positive_statements,
      expected_positive_statements, observed_negative_statements,
      expected_negative_statements, positive_entity_fraction,
      undecided_entities, positive_count_chi2, negative_count_chi2);
}

}  // namespace surveyor
