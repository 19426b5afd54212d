#include "core/trainer.hpp"

#include "ml/metrics.hpp"

namespace homunculus::core {

namespace {

/** Score predictions under the spec's objective metric. */
double
scoreMetric(Metric metric, const std::vector<int> &truth,
            const std::vector<int> &predicted, int num_classes)
{
    switch (metric) {
      case Metric::kF1:
        return ml::f1ForTask(truth, predicted, num_classes);
      case Metric::kAccuracy:
        return ml::accuracy(truth, predicted);
      case Metric::kVMeasure:
        return ml::vMeasure(truth, predicted);
    }
    return 0.0;
}

ml::MlpConfig
dnnConfig(const opt::Configuration &config, const ml::DataSplit &split,
          std::uint64_t seed)
{
    ml::MlpConfig mlp_config;
    mlp_config.inputDim = split.train.numFeatures();
    mlp_config.numClasses = split.train.numClasses;
    auto num_layers = static_cast<std::size_t>(config.integer("num_layers"));
    for (std::size_t l = 0; l < num_layers; ++l) {
        mlp_config.hiddenLayers.push_back(static_cast<std::size_t>(
            config.integer("width_" + std::to_string(l))));
    }
    mlp_config.learningRate = config.real("learning_rate");
    mlp_config.batchSize =
        static_cast<std::size_t>(config.integer("batch_size"));
    mlp_config.activation =
        ml::activationFromName(config.categorical("activation"));
    mlp_config.epochs = kCandidateTrainEpochs;
    mlp_config.seed = seed;
    return mlp_config;
}

ir::ModelIr
trainSvm(const opt::Configuration &config, const ModelSpec &spec,
         const ml::DataSplit &split, std::uint64_t seed)
{
    ml::SvmConfig svm_config;
    svm_config.learningRate = config.real("learning_rate");
    svm_config.regularization = config.real("regularization");
    svm_config.epochs = static_cast<std::size_t>(config.integer("epochs"));
    svm_config.seed = seed;

    ml::LinearSvm svm(svm_config);
    svm.train(split.train);
    return ir::lowerSvm(svm, common::FixedPointFormat::q88(), spec.name,
                        split.train.numFeatures());
}

ir::ModelIr
trainKMeans(const opt::Configuration &config, const ModelSpec &spec,
            const ml::DataSplit &split, std::uint64_t seed)
{
    ml::KMeansConfig km_config;
    km_config.numClusters =
        static_cast<std::size_t>(config.integer("num_clusters"));
    km_config.maxIterations =
        static_cast<std::size_t>(config.integer("max_iterations"));
    km_config.seed = seed;

    ml::KMeans kmeans(km_config);
    kmeans.fit(split.train.x);
    return ir::lowerKMeans(kmeans, common::FixedPointFormat::q88(),
                           spec.name, split.train.numFeatures());
}

ir::ModelIr
trainTree(const opt::Configuration &config, const ModelSpec &spec,
          const ml::DataSplit &split, std::uint64_t seed)
{
    ml::TreeConfig tree_config;
    tree_config.maxDepth =
        static_cast<std::size_t>(config.integer("max_depth"));
    tree_config.minSamplesLeaf =
        static_cast<std::size_t>(config.integer("min_samples_leaf"));
    tree_config.seed = seed;

    ml::DecisionTreeClassifier tree(tree_config);
    tree.train(split.train);
    return ir::lowerDecisionTree(tree, common::FixedPointFormat::q88(),
                                 spec.name, split.train.numFeatures());
}

}  // namespace

CandidateEvaluation
evaluateCandidate(Algorithm algorithm, const opt::Configuration &config,
                  const ModelSpec &spec, const ml::DataSplit &split,
                  const backends::Platform &platform, std::uint64_t seed,
                  const backends::EvalOptions &eval)
{
    CandidateEvaluation evaluation;
    switch (algorithm) {
      case Algorithm::kDnn: {
        // Every platform's MLP estimate reads layer sizes only, so the
        // untrained lowering already gets the trained net's report. An
        // infeasible shape scores 0 whatever it learns: skip training.
        ml::Mlp mlp(dnnConfig(config, split, seed));
        evaluation.model = ir::lowerMlp(
            mlp, common::FixedPointFormat::q88(), spec.name);
        evaluation.report = platform.estimate(evaluation.model);
        if (evaluation.report.feasible) {
            mlp.train(split.train);
            evaluation.model = ir::lowerMlp(
                mlp, common::FixedPointFormat::q88(), spec.name);
        }
        break;
      }
      case Algorithm::kSvm:
        evaluation.model = trainSvm(config, spec, split, seed);
        break;
      case Algorithm::kKMeans:
        evaluation.model = trainKMeans(config, spec, split, seed);
        break;
      case Algorithm::kDecisionTree:
        evaluation.model = trainTree(config, spec, split, seed);
        break;
    }
    // The other families estimate after training: MAT targets bin SVM
    // and KMeans weights, and a tree costs the depth it trained to.
    if (algorithm != Algorithm::kDnn)
        evaluation.report = platform.estimate(evaluation.model);

    // Scaler provenance: the split's training-time standardization (when
    // the loader recorded one) ships inside the artifact, so serving
    // reapplies the exact transform instead of refitting on traffic.
    // Recorded even when empty — "trained on raw features" is a
    // statement too, and keeps serving from inventing a scaler.
    evaluation.model.scalerMeans = split.scalerMeans;
    evaluation.model.scalerStds = split.scalerStds;
    evaluation.model.scalerRecorded = true;

    if (evaluation.report.feasible) {
        // One batched evaluate per candidate: the backend compiles the
        // model once (ir::ExecutablePlan on plan-backed platforms, a MAT
        // program on tofino) and reuses it across the whole partition —
        // this is the innermost loop of the black-box search (§3.2.4).
        // eval shards the partition across cores and reuses the spec's
        // per-format quantization cache without changing the score.
        std::vector<int> predicted =
            platform.evaluate(evaluation.model, split.test.x, eval);
        evaluation.objective = scoreMetric(spec.optimizationMetric,
                                           split.test.y, predicted,
                                           split.test.numClasses);
    }
    return evaluation;
}

opt::EvalResult
toEvalResult(const CandidateEvaluation &evaluation)
{
    opt::EvalResult result;
    result.objective = evaluation.objective;
    result.feasible = evaluation.report.feasible;
    result.metrics["cus"] =
        static_cast<double>(evaluation.report.computeUnits);
    result.metrics["mus"] =
        static_cast<double>(evaluation.report.memoryUnits);
    result.metrics["mat_tables"] =
        static_cast<double>(evaluation.report.matTables);
    result.metrics["latency_ns"] = evaluation.report.latencyNs;
    result.metrics["throughput_gpps"] = evaluation.report.throughputGpps;
    result.metrics["params"] =
        static_cast<double>(evaluation.model.paramCount());
    return result;
}

const std::vector<std::string> &
evalMetricKeys()
{
    static const std::vector<std::string> keys = {
        "cus", "mus", "mat_tables", "latency_ns", "throughput_gpps",
        "params"};
    return keys;
}

}  // namespace homunculus::core
