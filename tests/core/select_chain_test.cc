#include "core/select_chain.h"

#include <gtest/gtest.h>

#include <map>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/fused_pipeline.h"
#include "relational/operators.h"
#include "tests/core/byte_identical.h"

namespace kf::core {
namespace {

// Runs every cluster of the chain's plan under `options` through the
// executor's staged kernel; returns the last SELECT's output.
relational::Table RunChain(const SelectChain& chain, const relational::Table& data,
                           const FusionOptions& options, int chunks,
                           ThreadPool* pool = nullptr) {
  std::map<NodeId, relational::Table> computed;
  auto lookup = [&](NodeId id) -> const relational::Table& {
    return id == chain.source ? data : computed.at(id);
  };
  for (const FusionCluster& cluster : PlanFusion(chain.graph, options).clusters) {
    ClusterExecution exec = ExecuteCluster(chain.graph, cluster, lookup, chunks, pool);
    for (auto& [id, table] : exec.outputs) {
      computed.insert_or_assign(id, std::move(table));
    }
  }
  return computed.at(chain.selects.back());
}

TEST(SelectChain, GraphShape) {
  const SelectChain chain = MakeSelectChain(1000, std::vector<double>{0.5, 0.5, 0.5});
  EXPECT_EQ(chain.graph.node_count(), 4u);  // source + 3 selects
  EXPECT_EQ(chain.selects.size(), 3u);
  EXPECT_EQ(chain.graph.Sinks(), std::vector<NodeId>{chain.selects.back()});
  EXPECT_EQ(chain.input_bytes(), 4000u);
}

TEST(SelectChain, ExpectedRowsCompound) {
  const SelectChain chain = MakeSelectChain(1000000, std::vector<double>{0.5, 0.5});
  EXPECT_EQ(chain.expected_rows.at(chain.source), 1000000u);
  EXPECT_NEAR(chain.expected_rows.at(chain.selects[0]), 500000.0, 1.0);
  EXPECT_NEAR(chain.expected_rows.at(chain.selects[1]), 250000.0, 1.0);
}

TEST(SelectChain, ThresholdsAreNested) {
  const SelectChain chain = MakeSelectChain(100, std::vector<double>{0.5, 0.5, 0.5});
  ASSERT_EQ(chain.thresholds.size(), 3u);
  EXPECT_GT(chain.thresholds[0], chain.thresholds[1]);
  EXPECT_GT(chain.thresholds[1], chain.thresholds[2]);
}

TEST(SelectChain, RealizedSelectivityMatchesExpectation) {
  const SelectChain chain = MakeSelectChain(100000, std::vector<double>{0.3, 0.5});
  const relational::Table data = MakeUniformInt32Table(100000, 7);
  relational::Table current = data;
  for (std::size_t i = 0; i < chain.selects.size(); ++i) {
    current = relational::ApplyOperator(
        chain.graph.node(chain.selects[i]).desc, current);
    const double expected =
        static_cast<double>(chain.expected_rows.at(chain.selects[i]));
    EXPECT_NEAR(static_cast<double>(current.row_count()) / expected, 1.0, 0.05)
        << "select " << i;
  }
}

TEST(SelectChain, FusedEqualsUnfused) {
  // The core guarantee of kernel fusion: identical results (Fig 6 vs 3x Fig 3).
  const SelectChain chain = MakeSelectChain(30000, std::vector<double>{0.5, 0.7, 0.9});
  FusionOptions unfused;
  unfused.enabled = false;
  ASSERT_EQ(PlanFusion(chain.graph).clusters.size(), 1u);
  ASSERT_EQ(PlanFusion(chain.graph, unfused).clusters.size(), 3u);
  ThreadPool pool(4);
  for (std::size_t rows : {0, 30000}) {
    const relational::Table data = MakeUniformInt32Table(rows, 6);
    const relational::Table reference = RunChain(chain, data, unfused, 1);
    EXPECT_EQ(reference.row_count() == 0, rows == 0);
    for (ThreadPool* use_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      for (int chunks : {1, 32, 448}) {
        EXPECT_TRUE(ByteIdentical(RunChain(chain, data, {}, chunks, use_pool), reference))
            << "fused, " << rows << " rows, " << chunks << " chunks";
        EXPECT_TRUE(
            ByteIdentical(RunChain(chain, data, unfused, chunks, use_pool), reference))
            << "unfused, " << rows << " rows, " << chunks << " chunks";
      }
    }
  }
}

TEST(SelectChain, FiftyPercentChainKeepsQuarter) {
  // Paper III-B: two 50% SELECTs keep 25% of the data, here in one fused
  // cluster.
  const SelectChain chain = MakeSelectChain(100000, std::vector<double>{0.5, 0.5});
  const relational::Table out =
      RunChain(chain, MakeUniformInt32Table(100000, 7), FusionOptions{}, 64);
  EXPECT_NEAR(static_cast<double>(out.row_count()) / 100000.0, 0.25, 0.01);
}

TEST(SelectChain, RejectsBadSelectivities) {
  EXPECT_THROW(MakeSelectChain(10, std::vector<double>{}), Error);
  EXPECT_THROW(MakeSelectChain(10, std::vector<double>{1.5}), Error);
  EXPECT_THROW(MakeSelectChain(10, std::vector<double>{0.0}), Error);
}

TEST(UniformTable, DeterministicAndInDomain) {
  const relational::Table a = MakeUniformInt32Table(1000, 3);
  const relational::Table b = MakeUniformInt32Table(1000, 3);
  EXPECT_TRUE(relational::SameRowMultiset(a, b));
  for (std::int32_t v : a.column(0).AsInt32()) EXPECT_GE(v, 0);
}

}  // namespace
}  // namespace kf::core
