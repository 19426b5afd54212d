/**
 * @file
 * Bytes-to-verdict: the full data-plane path from raw packets.
 *
 * Everything the switch pipeline does, end to end in simulation:
 * raw IoT packets are serialized to wire format, re-parsed (Figure 5's
 * "Packet Parsing" stage), run through the feature extractor ("Feature
 * Extraction"), and the resulting dataset drives a Homunculus search
 * whose winner then classifies fresh packets straight from bytes.
 *
 * Run: ./raw_packet_pipeline
 */
#include <iostream>

#include "core/compiler.hpp"
#include "ml/metrics.hpp"
#include "ml/preprocess.hpp"
#include "net/feature_extract.hpp"

int
main()
{
    using namespace homunculus;

    std::cout << "=== Homunculus raw-packet pipeline ===\n\n";

    // ---- Generate raw packets and build the dataset from bytes. ---------
    net::IotPacketConfig packet_config;
    packet_config.numPackets = 4000;
    auto packets = net::generateIotPackets(packet_config);

    net::FeatureExtractor extractor;
    auto dataset = net::datasetFromPackets(packets, extractor);
    std::cout << "parsed " << dataset.numSamples() << "/" << packets.size()
              << " packets into " << dataset.numFeatures()
              << " features x " << dataset.numClasses << " classes\n";

    auto split = ml::stratifiedSplit(dataset, 0.3, 7);
    ml::StandardScaler scaler;
    split.train.x = scaler.fitTransform(split.train.x);
    split.test.x = scaler.transform(split.test.x);
    // Record the fit so the artifact carries true scaler provenance.
    split.scalerMeans = scaler.means();
    split.scalerStds = scaler.stddevs();

    // ---- Search a model for the Taurus target. ---------------------------
    core::ModelSpec spec;
    spec.name = "raw_packet_tc";
    spec.optimizationMetric = core::Metric::kF1;
    spec.algorithms = {core::Algorithm::kDnn};
    spec.dataLoader = [split] { return split; };

    auto platform = core::Platforms::taurus();
    platform.constrain({1.0, 500.0}, {16, 16});
    core::CompileOptions options;
    options.bo.numInitSamples = 4;
    options.bo.numIterations = 8;
    platform.schedule(spec);
    auto compiled = core::Compiler(options).compile(platform).value();
    const core::GeneratedModel &generated = compiled.models.front();

    std::cout << "winner: " << generated.model.paramCount() << " params, "
              << generated.report.summary() << "\n"
              << "macro F1 on held-out packets: " << generated.objective
              << "\n\n";

    // ---- Classify fresh packets straight from their wire bytes. ---------
    net::IotPacketConfig fresh_config;
    fresh_config.numPackets = 10;
    fresh_config.seed = 4242;
    auto fresh = net::generateIotPackets(fresh_config);

    std::cout << "per-packet verdicts from raw bytes:\n";
    std::size_t correct = 0;
    for (const auto &labeled : fresh) {
        auto bytes = net::serialize(labeled.packet);
        auto features = extractor.extractFromWire(bytes);
        if (!features)
            continue;
        math::Matrix row(1, features->size());
        for (std::size_t c = 0; c < features->size(); ++c)
            row(0, c) = (*features)[c];
        row = scaler.transform(row);
        int verdict =
            platform.platform().evaluate(generated.model, row).front();
        correct += (verdict == labeled.deviceClass) ? 1 : 0;
        std::cout << "  " << bytes.size() << "B packet -> class " << verdict
                  << " (truth " << labeled.deviceClass << ")\n";
    }
    std::cout << correct << "/" << fresh.size() << " correct\n";
    return 0;
}
