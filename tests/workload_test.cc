#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/workload/request_model.h"
#include "src/workload/zipf.h"

namespace trimcaching::workload {
namespace {

using support::Rng;

// ----------------------------------------------------------------------- Zipf

TEST(Zipf, PmfSumsToOne) {
  const ZipfDistribution zipf(30, 0.8);
  double sum = 0;
  for (std::size_t r = 0; r < zipf.size(); ++r) sum += zipf.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, PmfDecreasing) {
  const ZipfDistribution zipf(100, 1.2);
  for (std::size_t r = 1; r < zipf.size(); ++r) {
    EXPECT_LT(zipf.pmf(r), zipf.pmf(r - 1));
  }
}

TEST(Zipf, ZeroExponentIsUniform) {
  const ZipfDistribution zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-12);
}

TEST(Zipf, RatioMatchesPowerLaw) {
  const ZipfDistribution zipf(50, 1.0);
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(9), 10.0, 1e-9);
}

TEST(Zipf, SamplerMatchesPmf) {
  const ZipfDistribution zipf(5, 1.0);
  Rng rng(13);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int t = 0; t < n; ++t) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, zipf.pmf(r), 0.01);
  }
}

TEST(Zipf, InvalidArgs) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(5, -0.1), std::invalid_argument);
}

// -------------------------------------------------------------- Request model

TEST(RequestModel, PerUserMassIsOne) {
  Rng rng(1);
  const auto rm = RequestModel::generate(7, 20, RequestConfig{}, rng);
  for (UserId k = 0; k < 7; ++k) {
    double sum = 0;
    for (ModelId i = 0; i < 20; ++i) sum += rm.probability(k, i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_NEAR(rm.total_mass(), 7.0, 1e-9);
}

TEST(RequestModel, SparsityLimitsInterestSet) {
  Rng rng(2);
  RequestConfig config;
  config.models_per_user = 9;
  const auto rm = RequestModel::generate(5, 30, config, rng);
  for (UserId k = 0; k < 5; ++k) {
    int nonzero = 0;
    for (ModelId i = 0; i < 30; ++i) {
      if (rm.probability(k, i) > 0) ++nonzero;
    }
    EXPECT_EQ(nonzero, 9);
  }
}

TEST(RequestModel, DeadlinesInConfiguredRange) {
  Rng rng(3);
  RequestConfig config;
  const auto rm = RequestModel::generate(4, 10, config, rng);
  for (UserId k = 0; k < 4; ++k) {
    for (ModelId i = 0; i < 10; ++i) {
      EXPECT_GE(rm.deadline_s(k, i), config.deadline_min_s);
      EXPECT_LE(rm.deadline_s(k, i), config.deadline_max_s);
      EXPECT_GE(rm.inference_s(k, i), config.inference_min_s);
      EXPECT_LE(rm.inference_s(k, i), config.inference_max_s);
      // Inference must never consume the whole deadline with defaults.
      EXPECT_LT(rm.inference_s(k, i), rm.deadline_s(k, i));
    }
  }
}

TEST(RequestModel, GlobalPopularityOrderShared) {
  Rng rng(4);
  RequestConfig config;
  config.per_user_popularity = false;
  const auto rm = RequestModel::generate(6, 15, config, rng);
  // With a global order, every user has identical probabilities.
  for (UserId k = 1; k < 6; ++k) {
    for (ModelId i = 0; i < 15; ++i) {
      EXPECT_DOUBLE_EQ(rm.probability(k, i), rm.probability(0, i));
    }
  }
}

TEST(RequestModel, PerUserPopularityDiffers) {
  Rng rng(5);
  RequestConfig config;
  config.per_user_popularity = true;
  config.zipf_exponent = 1.2;
  const auto rm = RequestModel::generate(4, 20, config, rng);
  bool any_diff = false;
  for (ModelId i = 0; i < 20 && !any_diff; ++i) {
    if (rm.probability(0, i) != rm.probability(1, i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RequestModel, InvalidConfigRejected) {
  Rng rng(6);
  RequestConfig config;
  config.models_per_user = 50;
  EXPECT_THROW((void)RequestModel::generate(3, 30, config, rng), std::invalid_argument);
  config = RequestConfig{};
  config.deadline_min_s = 2.0;  // > max
  EXPECT_THROW((void)RequestModel::generate(3, 30, config, rng), std::invalid_argument);
  EXPECT_THROW((void)RequestModel::generate(0, 30, RequestConfig{}, rng),
               std::invalid_argument);
}

TEST(RequestModel, NonFiniteConfigRejectedNamingTheField) {
  // NaN fails every comparison, so it must not slip past the range tests.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_rejects = [](const RequestConfig& config, const std::string& field) {
    try {
      config.validate();
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  for (const double bad : {nan, inf, -inf, -0.5}) {
    RequestConfig config;
    config.zipf_exponent = bad;
    expect_rejects(config, "zipf_exponent");
  }
  for (const double bad : {nan, inf}) {
    RequestConfig config;
    config.deadline_min_s = bad;
    expect_rejects(config, "deadline");
    config = RequestConfig{};
    config.deadline_max_s = bad;
    expect_rejects(config, "deadline");
    config = RequestConfig{};
    config.inference_min_s = bad;
    expect_rejects(config, "inference");
    config = RequestConfig{};
    config.inference_max_s = bad;
    expect_rejects(config, "inference");
  }
  EXPECT_NO_THROW(RequestConfig{}.validate());
}

TEST(RequestModel, OutOfRangeAccessThrows) {
  Rng rng(7);
  const auto rm = RequestModel::generate(2, 3, RequestConfig{}, rng);
  EXPECT_THROW((void)rm.probability(2, 0), std::out_of_range);
  EXPECT_THROW((void)rm.probability(0, 3), std::out_of_range);
  EXPECT_THROW((void)rm.requested(2), std::out_of_range);
  EXPECT_THROW((void)rm.compute_cost(0, 3), std::out_of_range);
}

TEST(RequestModel, UnrequestedCellsHaveZeroProbability) {
  Rng rng(8);
  RequestConfig config;
  config.models_per_user = 4;
  const auto rm = RequestModel::generate(5, 12, config, rng);
  for (UserId k = 0; k < 5; ++k) {
    std::vector<char> requested(12, 0);
    ASSERT_EQ(rm.requested(k).size(), 4u);
    for (const RequestCell& cell : rm.requested(k)) {
      requested[cell.model] = 1;
      EXPECT_GT(cell.probability, 0.0);
      EXPECT_EQ(rm.probability(k, cell.model), cell.probability);
    }
    for (ModelId i = 0; i < 12; ++i) {
      if (!requested[i]) {
        EXPECT_EQ(rm.probability(k, i), 0.0) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(RequestModel, ComputeCostIsScaleTimesInferenceBitwise) {
  Rng rng(9);
  RequestConfig config;
  config.infer_cost_scale = 3.7;
  const auto rm = RequestModel::generate(4, 10, config, rng);
  EXPECT_EQ(rm.cost_scale(), 3.7);
  for (UserId k = 0; k < 4; ++k) {
    for (ModelId i = 0; i < 10; ++i) {
      EXPECT_EQ(rm.compute_cost(k, i), config.infer_cost_scale * rm.inference_s(k, i));
    }
  }
}

TEST(RequestModel, FromRowsRebuildsAGeneratedModelBitwise) {
  for (const std::size_t interest : {std::size_t{0}, std::size_t{6}}) {
    Rng rng(10);
    RequestConfig config;
    config.models_per_user = interest;
    config.infer_cost_scale = 0.3;
    const auto rm = RequestModel::generate(7, 15, config, rng);
    std::vector<std::vector<RequestEntry>> rows(rm.num_users());
    for (UserId k = 0; k < rm.num_users(); ++k) {
      for (const RequestCell& cell : rm.requested(k)) {
        rows[k].push_back(RequestEntry{cell.model, cell.probability,
                                       rm.deadline_s(k, cell.model),
                                       rm.inference_s(k, cell.model)});
      }
    }
    const auto rebuilt = RequestModel::from_rows(rm.num_models(), rows, rm.cost_scale());
    EXPECT_EQ(rebuilt.total_mass(), rm.total_mass());
    for (UserId k = 0; k < rm.num_users(); ++k) {
      ASSERT_EQ(rebuilt.requested(k).size(), rm.requested(k).size());
      for (const RequestCell& cell : rm.requested(k)) {
        const ModelId i = cell.model;
        EXPECT_EQ(rebuilt.probability(k, i), rm.probability(k, i));
        EXPECT_EQ(rebuilt.deadline_s(k, i), rm.deadline_s(k, i));
        EXPECT_EQ(rebuilt.inference_s(k, i), rm.inference_s(k, i));
        EXPECT_EQ(rebuilt.compute_cost(k, i), rm.compute_cost(k, i));
      }
    }
  }
}

TEST(RequestModel, FromRowsRejectsABadCostScale) {
  const std::vector<std::vector<RequestEntry>> rows = {{RequestEntry{0, 1.0, 1.0, 0.1}}};
  for (const double bad : {std::nan(""), -1.0, std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)RequestModel::from_rows(2, rows, bad), std::invalid_argument);
  }
  EXPECT_NO_THROW((void)RequestModel::from_rows(2, rows, 0.0));
}

}  // namespace
}  // namespace trimcaching::workload
