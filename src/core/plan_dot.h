// Graphviz DOT export of operator graphs and fusion plans.
//
// Renders what the paper's Fig 17 draws by hand: the query plan, with the
// fusion planner's clusters as colored subgraph boxes (fused blocks shaded)
// — `dot -Tpdf plan.dot -o plan.pdf` gives the picture.
#ifndef KF_CORE_PLAN_DOT_H_
#define KF_CORE_PLAN_DOT_H_

#include <string>

#include "core/fusion_planner.h"
#include "core/op_graph.h"

namespace kf::core {

// The DAG with fusion clusters drawn as subgraph boxes.
std::string ToDot(const OpGraph& graph, const FusionPlan& plan);

}  // namespace kf::core

#endif  // KF_CORE_PLAN_DOT_H_
