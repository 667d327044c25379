#include "eval/experiment.h"

#include "baselines/acd.h"

#include "crowd/answer_cache.h"
#include "baselines/gcer.h"
#include "baselines/trans.h"
#include "crowd/cost_model.h"
#include "eval/ground_truth.h"
#include "sim/similarity_matrix.h"

namespace power {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kPower:
      return "Power";
    case Method::kPowerPlus:
      return "Power+";
    case Method::kTrans:
      return "Trans";
    case Method::kAcd:
      return "ACD";
    case Method::kGcer:
      return "GCER";
  }
  return "?";
}

std::vector<Method> AllMethods() {
  return {Method::kPower, Method::kPowerPlus, Method::kTrans, Method::kAcd,
          Method::kGcer};
}

ExperimentRow RunMethod(Method method, const Table& table,
                        const std::vector<std::pair<int, int>>& candidates,
                        const ExperimentSetup& setup) {
  CrowdOracle oracle(&table, setup.band, setup.model,
                     setup.workers_per_question, setup.seed,
                     setup.difficulty_scale);
  ErResult er;
  switch (method) {
    case Method::kPower:
    case Method::kPowerPlus: {
      PowerConfig config = setup.power_config;
      config.error_tolerant = (method == Method::kPowerPlus);
      PowerFramework framework(config);
      const FeatureCache features(table);
      er = framework.RunOnPairs(
          ComputeSimilarityTable(features, candidates, config.component_floor),
          &oracle);
      break;
    }
    case Method::kTrans:
      er = RunTrans(table, candidates, &oracle);
      break;
    case Method::kAcd: {
      AcdConfig config;
      config.seed = setup.seed;
      er = RunAcd(table, candidates, &oracle, config);
      break;
    }
    case Method::kGcer: {
      GcerConfig config;
      config.budget = setup.gcer_budget;
      er = RunGcer(table, candidates, &oracle, config);
      break;
    }
  }
  ExperimentRow row;
  row.method = method;
  row.quality = ComputePrf(er.matched_pairs, TrueMatchPairs(table));
  row.questions = er.questions;
  row.iterations = er.iterations;
  row.assignment_seconds = er.assignment_seconds;
  row.requeued = er.requeued_questions;
  row.degraded = er.degraded_questions;
  row.checkpointed = er.checkpoints_written;
  row.resumed = er.resumed;
  CostModel cost;
  cost.workers_per_question = setup.workers_per_question;
  row.dollars = cost.Dollars(er.questions);
  return row;
}

std::vector<ExperimentRow> RunAllMethods(
    const Table& table, const std::vector<std::pair<int, int>>& candidates,
    const ExperimentSetup& setup) {
  std::vector<ExperimentRow> rows;
  rows.push_back(RunMethod(Method::kPower, table, candidates, setup));
  rows.push_back(RunMethod(Method::kPowerPlus, table, candidates, setup));
  rows.push_back(RunMethod(Method::kTrans, table, candidates, setup));
  rows.push_back(RunMethod(Method::kAcd, table, candidates, setup));
  ExperimentSetup gcer_setup = setup;
  if (gcer_setup.gcer_budget == 0) {
    // The paper ties GCER's budget to the largest consumer (ACD).
    gcer_setup.gcer_budget = rows.back().questions;
  }
  rows.push_back(RunMethod(Method::kGcer, table, candidates, gcer_setup));
  return rows;
}

}  // namespace power
