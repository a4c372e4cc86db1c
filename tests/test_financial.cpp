// Tests for the financial module: the excess-of-loss primitive, ELT terms,
// layer terms (Table I), the path-dependent aggregate accumulator, and the
// extension features (reinstatements, multi-year limits, loss
// distributions and the lognormal discretizer). Property sweeps use TEST_P.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "financial/discretize.hpp"
#include "financial/loss_distribution.hpp"
#include "financial/reinstatement.hpp"
#include "financial/terms.hpp"
#include "financial/trial_accumulator.hpp"

namespace {

using namespace are::financial;

// --- excess_of_loss primitive -----------------------------------------------

TEST(ExcessOfLoss, BasicBands) {
  EXPECT_EQ(excess_of_loss(0.0, 10.0, 20.0), 0.0);
  EXPECT_EQ(excess_of_loss(10.0, 10.0, 20.0), 0.0);   // exactly at retention
  EXPECT_EQ(excess_of_loss(15.0, 10.0, 20.0), 5.0);   // inside the band
  EXPECT_EQ(excess_of_loss(30.0, 10.0, 20.0), 20.0);  // exactly exhausts
  EXPECT_EQ(excess_of_loss(100.0, 10.0, 20.0), 20.0); // beyond the band
}

TEST(ExcessOfLoss, ZeroRetention) {
  EXPECT_EQ(excess_of_loss(5.0, 0.0, 10.0), 5.0);
  EXPECT_EQ(excess_of_loss(15.0, 0.0, 10.0), 10.0);
}

TEST(ExcessOfLoss, UnlimitedLimit) {
  EXPECT_EQ(excess_of_loss(1e12, 10.0, kUnlimited), 1e12 - 10.0);
}

TEST(ExcessOfLoss, ZeroLimitCedesNothing) {
  EXPECT_EQ(excess_of_loss(100.0, 10.0, 0.0), 0.0);
}

// Property sweep: monotonicity and bounds over a parameter grid.
class ExcessOfLossProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ExcessOfLossProperty, MonotoneBoundedLipschitz) {
  const auto [retention, limit] = GetParam();
  double previous = 0.0;
  for (double loss = 0.0; loss <= 250.0; loss += 2.5) {
    const double ceded = excess_of_loss(loss, retention, limit);
    EXPECT_GE(ceded, 0.0);
    EXPECT_LE(ceded, limit);
    EXPECT_LE(ceded, loss);           // never cede more than the loss
    EXPECT_GE(ceded, previous);       // monotone in loss
    EXPECT_LE(ceded - previous, 2.5 + 1e-12);  // 1-Lipschitz
    previous = ceded;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ExcessOfLossProperty,
                         ::testing::Combine(::testing::Values(0.0, 10.0, 50.0, 100.0),
                                            ::testing::Values(0.0, 5.0, 50.0, 1000.0)));

// --- FinancialTerms ----------------------------------------------------------

TEST(FinancialTerms, DefaultPassesThrough) {
  const FinancialTerms terms;
  EXPECT_DOUBLE_EQ(terms.apply(123.45), 123.45);
}

TEST(FinancialTerms, AppliesCurrencyBeforeBand) {
  FinancialTerms terms;
  terms.currency_rate = 2.0;
  terms.occurrence_retention = 10.0;
  terms.occurrence_limit = 100.0;
  // 30 native -> 60 converted -> 50 in excess of 10.
  EXPECT_DOUBLE_EQ(terms.apply(30.0), 50.0);
}

TEST(FinancialTerms, ShareAppliedAfterBand) {
  FinancialTerms terms;
  terms.occurrence_retention = 10.0;
  terms.occurrence_limit = 20.0;
  terms.share = 0.5;
  EXPECT_DOUBLE_EQ(terms.apply(100.0), 10.0);  // min(90,20) * 0.5
}

TEST(FinancialTerms, ValidationRejectsBadValues) {
  FinancialTerms terms;
  terms.occurrence_retention = -1.0;
  EXPECT_THROW(terms.validate(), std::invalid_argument);

  terms = {};
  terms.share = 0.0;
  EXPECT_THROW(terms.validate(), std::invalid_argument);
  terms.share = 1.5;
  EXPECT_THROW(terms.validate(), std::invalid_argument);

  terms = {};
  terms.currency_rate = 0.0;
  EXPECT_THROW(terms.validate(), std::invalid_argument);

  terms = {};
  EXPECT_NO_THROW(terms.validate());
}

// --- LayerTerms --------------------------------------------------------------

TEST(LayerTerms, CatXlFactoryHasNoAggregateFeatures) {
  const LayerTerms terms = LayerTerms::cat_xl(10.0, 50.0);
  EXPECT_DOUBLE_EQ(terms.apply_occurrence(40.0), 30.0);
  EXPECT_DOUBLE_EQ(terms.apply_aggregate(1e9), 1e9);  // pass-through
}

TEST(LayerTerms, AggregateXlFactoryHasNoOccurrenceFeatures) {
  const LayerTerms terms = LayerTerms::aggregate_xl(100.0, 500.0);
  EXPECT_DOUBLE_EQ(terms.apply_occurrence(40.0), 40.0);  // pass-through
  EXPECT_DOUBLE_EQ(terms.apply_aggregate(700.0), 500.0);
}

TEST(LayerTerms, ValidationRejectsNegatives) {
  LayerTerms terms;
  terms.aggregate_retention = -5.0;
  EXPECT_THROW(terms.validate(), std::invalid_argument);
}

// --- TrialAccumulator: the path-dependent aggregate recurrence ---------------

TEST(TrialAccumulator, NoTermsSumsOccurrences) {
  TrialAccumulator acc{LayerTerms{}};
  acc.add_occurrence(10.0);
  acc.add_occurrence(20.0);
  acc.add_occurrence(30.0);
  EXPECT_DOUBLE_EQ(acc.trial_loss(), 60.0);
  EXPECT_DOUBLE_EQ(acc.cumulative_occurrence_loss(), 60.0);
}

TEST(TrialAccumulator, AggregateRetentionAbsorbsEarlyLosses) {
  TrialAccumulator acc{LayerTerms::aggregate_xl(25.0, kUnlimited)};
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 0.0);  // cum 10 < 25
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 0.0);  // cum 20 < 25
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 5.0);  // cum 30: 5 past retention
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 10.0);
  EXPECT_DOUBLE_EQ(acc.trial_loss(), 15.0);
}

TEST(TrialAccumulator, AggregateLimitExhausts) {
  TrialAccumulator acc{LayerTerms::aggregate_xl(0.0, 25.0)};
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 10.0);
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 10.0);
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 5.0);  // hits the limit
  EXPECT_DOUBLE_EQ(acc.add_occurrence(10.0), 0.0);  // exhausted
  EXPECT_DOUBLE_EQ(acc.trial_loss(), 25.0);
}

TEST(TrialAccumulator, TrialLossEqualsDirectFormula) {
  // Increment telescoping: total == EoL(sum of occurrences).
  const LayerTerms terms = LayerTerms::aggregate_xl(37.0, 120.0);
  TrialAccumulator acc{terms};
  const double occurrences[] = {5.0, 50.0, 0.0, 33.0, 80.0, 12.0};
  double cumulative = 0.0;
  for (double occurrence : occurrences) {
    acc.add_occurrence(occurrence);
    cumulative += occurrence;
  }
  EXPECT_DOUBLE_EQ(acc.trial_loss(), terms.apply_aggregate(cumulative));
}

TEST(TrialAccumulator, ResetClearsState) {
  TrialAccumulator acc{LayerTerms::aggregate_xl(5.0, 10.0)};
  acc.add_occurrence(100.0);
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.trial_loss(), 0.0);
  EXPECT_DOUBLE_EQ(acc.cumulative_occurrence_loss(), 0.0);
  EXPECT_DOUBLE_EQ(acc.add_occurrence(7.0), 2.0);
}

// Property: increments are non-negative and never exceed the occurrence.
class AccumulatorProperty : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AccumulatorProperty, IncrementsWellBehaved) {
  const auto [retention, limit] = GetParam();
  TrialAccumulator acc{LayerTerms::aggregate_xl(retention, limit)};
  double total = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double occurrence = static_cast<double>((i * 7919) % 97);
    const double increment = acc.add_occurrence(occurrence);
    EXPECT_GE(increment, 0.0);
    EXPECT_LE(increment, occurrence + 1e-9);
    total += increment;
  }
  EXPECT_NEAR(total, acc.trial_loss(), 1e-9);
  EXPECT_LE(acc.trial_loss(), limit + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, AccumulatorProperty,
                         ::testing::Combine(::testing::Values(0.0, 10.0, 500.0, 5000.0),
                                            ::testing::Values(1.0, 100.0, 2000.0, kUnlimited)));

// --- Reinstatements ----------------------------------------------------------

TEST(Reinstatement, AggregateLimitScalesWithCount) {
  ReinstatementProvision provision;
  provision.count = 2;
  EXPECT_DOUBLE_EQ(provision.aggregate_limit(100.0), 300.0);
  EXPECT_EQ(provision.aggregate_limit(kUnlimited), kUnlimited);
}

TEST(Reinstatement, NoReinstatementsNoPremium) {
  const ReinstatementProvision provision;  // count = 0
  EXPECT_DOUBLE_EQ(provision.premium_fraction(1e9, 100.0), 0.0);
}

TEST(Reinstatement, ProRataPremiumOnPartialConsumption) {
  ReinstatementProvision provision;
  provision.count = 1;
  provision.premium_rates = {1.0};  // 100% paid reinstatement
  // Half the first tranche consumed -> half the reinstatement premium.
  EXPECT_DOUBLE_EQ(provision.premium_fraction(50.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(provision.premium_fraction(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(provision.premium_fraction(150.0, 100.0), 1.0);  // 2nd tranche uncharged
}

TEST(Reinstatement, MultipleRatesApplyPerTranche) {
  ReinstatementProvision provision;
  provision.count = 2;
  provision.premium_rates = {1.0, 0.5};
  // Consumes tranche 1 fully and half of tranche 2.
  EXPECT_DOUBLE_EQ(provision.premium_fraction(150.0, 100.0), 1.0 + 0.25);
  // Missing rates repeat the last one.
  provision.premium_rates = {1.0};
  EXPECT_DOUBLE_EQ(provision.premium_fraction(200.0, 100.0), 2.0);
}

TEST(Reinstatement, UnlimitedOccurrenceLimitNoPremium) {
  ReinstatementProvision provision;
  provision.count = 3;
  EXPECT_DOUBLE_EQ(provision.premium_fraction(1e6, kUnlimited), 0.0);
}

// --- Multi-year aggregate limit ----------------------------------------------

TEST(MultiYearAggregate, SharesLimitAcrossTermYears) {
  MultiYearAggregate contract(100.0, 3);
  EXPECT_DOUBLE_EQ(contract.add_year(60.0), 60.0);
  EXPECT_DOUBLE_EQ(contract.add_year(60.0), 40.0);  // only 40 left
  EXPECT_DOUBLE_EQ(contract.add_year(60.0), 0.0);   // exhausted
  // Term rolled over: full limit again.
  EXPECT_DOUBLE_EQ(contract.add_year(60.0), 60.0);
}

TEST(MultiYearAggregate, UnlimitedNeverBinds) {
  MultiYearAggregate contract(kUnlimited, 2);
  EXPECT_DOUBLE_EQ(contract.add_year(1e12), 1e12);
  EXPECT_DOUBLE_EQ(contract.add_year(1e12), 1e12);
}

TEST(MultiYearAggregate, RejectsBadConstruction) {
  EXPECT_THROW(MultiYearAggregate(100.0, 0), std::invalid_argument);
  EXPECT_THROW(MultiYearAggregate(-1.0, 2), std::invalid_argument);
}

TEST(Franchise, FullLossOncePastThreshold) {
  EXPECT_EQ(apply_franchise(5.0, 10.0), 0.0);
  EXPECT_EQ(apply_franchise(10.0, 10.0), 10.0);  // inclusive
  EXPECT_EQ(apply_franchise(50.0, 10.0), 50.0);
}

// --- LossDistribution (the convolution extension) ----------------------------

TEST(LossDistribution, NormalisesOnConstruction) {
  const LossDistribution dist({2.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(dist.mass()[0], 0.5);
  EXPECT_DOUBLE_EQ(dist.mass()[1], 0.5);
}

TEST(LossDistribution, RejectsInvalidInput) {
  EXPECT_THROW(LossDistribution({}, 1.0), std::invalid_argument);
  EXPECT_THROW(LossDistribution({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(LossDistribution({-1.0, 2.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(LossDistribution({0.0, 0.0}, 1.0), std::invalid_argument);
}

TEST(LossDistribution, PointMassMoments) {
  const auto dist = LossDistribution::point_mass(30.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(dist.mean(), 30.0);
  EXPECT_DOUBLE_EQ(dist.variance(), 0.0);
  EXPECT_DOUBLE_EQ(dist.quantile(0.5), 30.0);
}

TEST(LossDistribution, ConvolutionOfPointMassesAdds) {
  const auto a = LossDistribution::point_mass(20.0, 10.0, 16);
  const auto b = LossDistribution::point_mass(30.0, 10.0, 16);
  const auto sum = a.convolve(b, 64);
  EXPECT_DOUBLE_EQ(sum.mean(), 50.0);
  EXPECT_DOUBLE_EQ(sum.variance(), 0.0);
}

TEST(LossDistribution, ConvolutionMeansAdd) {
  const LossDistribution a({0.5, 0.25, 0.25}, 1.0);  // mean 0.75
  const LossDistribution b({0.25, 0.5, 0.25}, 1.0);  // mean 1.0
  const auto sum = a.convolve(b, 16);
  EXPECT_NEAR(sum.mean(), a.mean() + b.mean(), 1e-12);
}

TEST(LossDistribution, ConvolutionPreservesTotalMass) {
  const LossDistribution a({0.1, 0.2, 0.3, 0.4}, 5.0);
  const LossDistribution b({0.7, 0.3}, 5.0);
  const auto sum = a.convolve(b, 3);  // force tail folding
  double total = 0.0;
  for (double p : sum.mass()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(LossDistribution, ConvolutionRequiresMatchingGrids) {
  const LossDistribution a({1.0}, 1.0);
  const LossDistribution b({1.0}, 2.0);
  EXPECT_THROW(a.convolve(b, 8), std::invalid_argument);
}

TEST(LossDistribution, ExcessOfLossTransformMatchesScalar) {
  const auto dist = LossDistribution::point_mass(70.0, 10.0, 16);
  const auto ceded = dist.apply_excess_of_loss(30.0, 20.0);
  EXPECT_DOUBLE_EQ(ceded.mean(), excess_of_loss(70.0, 30.0, 20.0));
}

TEST(LossDistribution, ExcessOfLossReducesMean) {
  const LossDistribution dist({0.1, 0.2, 0.3, 0.2, 0.1, 0.1}, 10.0);
  const auto ceded = dist.apply_excess_of_loss(15.0, 20.0);
  EXPECT_LE(ceded.mean(), dist.mean());
}

TEST(LossDistribution, ExceedanceAndQuantileConsistent) {
  const LossDistribution dist({0.25, 0.25, 0.25, 0.25}, 1.0);
  EXPECT_DOUBLE_EQ(dist.exceedance(1.5), 0.5);
  EXPECT_DOUBLE_EQ(dist.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(dist.quantile(1.0), 3.0);
}

TEST(LossDistribution, MixtureInterpolatesMeans) {
  const auto a = LossDistribution::point_mass(0.0, 1.0, 8);
  const auto b = LossDistribution::point_mass(4.0, 1.0, 8);
  const auto mixed = a.mix(b, 0.25);
  EXPECT_DOUBLE_EQ(mixed.mean(), 1.0);
  EXPECT_THROW(a.mix(b, 1.5), std::invalid_argument);
}

// --- Lognormal discretizer (severity distributions on the LossDistribution grid)

TEST(Discretize, LognormalCdfSanity) {
  EXPECT_DOUBLE_EQ(lognormal_cdf(0.0, 0.0, 1.0), 0.0);
  EXPECT_NEAR(lognormal_cdf(1.0, 0.0, 1.0), 0.5, 1e-12);  // median e^0
  EXPECT_GT(lognormal_cdf(10.0, 0.0, 1.0), 0.98);
}

TEST(Discretize, PreservesMeanApproximately) {
  const double mean = 100.0;
  const auto dist = discretize_lognormal(mean, 0.5, 2.0, 512);
  EXPECT_NEAR(dist.mean(), mean, 0.05 * mean);
}

TEST(Discretize, ZeroCvGivesPointMass) {
  const auto dist = discretize_lognormal(40.0, 0.0, 10.0, 16);
  EXPECT_DOUBLE_EQ(dist.variance(), 0.0);
  EXPECT_DOUBLE_EQ(dist.mean(), 40.0);
}

TEST(Discretize, ZeroMeanGivesZeroPointMass) {
  const auto dist = discretize_lognormal(0.0, 0.5, 1.0, 16);
  EXPECT_DOUBLE_EQ(dist.mean(), 0.0);
}

TEST(Discretize, HigherCvMoreVariance) {
  const auto narrow = discretize_lognormal(100.0, 0.2, 1.0, 1024);
  const auto wide = discretize_lognormal(100.0, 0.8, 1.0, 1024);
  EXPECT_GT(wide.variance(), narrow.variance());
}

TEST(Discretize, MassSumsToOne) {
  const auto dist = discretize_lognormal(50.0, 0.6, 5.0, 64);
  double total = 0.0;
  for (double p : dist.mass()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Discretize, RejectsBadArguments) {
  EXPECT_THROW(discretize_lognormal(-1.0, 0.5, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(discretize_lognormal(1.0, -0.5, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(discretize_lognormal(1.0, 0.5, 0.0, 16), std::invalid_argument);
  EXPECT_THROW(discretize_lognormal(1.0, 0.5, 1.0, 0), std::invalid_argument);
}

}  // namespace
