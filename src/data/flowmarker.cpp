#include "data/flowmarker.hpp"

#include <algorithm>
#include <stdexcept>

namespace homunculus::data {

FlowMarkerConfig
flowLensOriginalConfig()
{
    FlowMarkerConfig config;
    config.plBins = 94;
    config.plBinWidth = 16.0;
    config.iptBins = 57;
    config.iptBinWidthSec = 64.0;
    return config;
}

FlowMarkerConfig
homunculusCompressedConfig()
{
    return {};  // defaults are the 23 + 7 scheme.
}

namespace {

/**
 * Count packet @p i of @p flow into @p marker: its PL bin, and from the
 * second packet on the IPT bin of its gap to packet i - 1.
 */
void
addPacket(std::vector<double> &marker, const Flow &flow, std::size_t i,
          const FlowMarkerConfig &config)
{
    const Packet &pkt = flow.packets[i];
    auto pl_bin = static_cast<std::size_t>(pkt.sizeBytes / config.plBinWidth);
    marker[std::min(pl_bin, config.plBins - 1)] += 1.0;

    if (i > 0) {
        double gap = pkt.timestampSec - flow.packets[i - 1].timestampSec;
        auto ipt_bin = static_cast<std::size_t>(std::max(0.0, gap) /
                                                config.iptBinWidthSec);
        marker[config.plBins + std::min(ipt_bin, config.iptBins - 1)] +=
            1.0;
    }
}

std::vector<std::string>
markerFeatureNames(const FlowMarkerConfig &config)
{
    std::vector<std::string> names;
    for (std::size_t b = 0; b < config.plBins; ++b)
        names.push_back("pl_bin_" + std::to_string(b));
    for (std::size_t b = 0; b < config.iptBins; ++b)
        names.push_back("ipt_bin_" + std::to_string(b));
    return names;
}

}  // namespace

std::vector<double>
computeFlowMarker(const Flow &flow, const FlowMarkerConfig &config,
                  std::size_t max_packets)
{
    std::vector<double> marker(config.totalBins(), 0.0);
    std::size_t count = flow.packets.size();
    if (max_packets > 0)
        count = std::min(count, max_packets);

    for (std::size_t i = 0; i < count; ++i)
        addPacket(marker, flow, i, config);
    return marker;
}

ml::Dataset
buildFlowLevelDataset(const std::vector<Flow> &flows,
                      const FlowMarkerConfig &config)
{
    if (flows.empty())
        throw std::runtime_error("flowmarker: no flows");
    ml::Dataset out;
    out.numClasses = 2;
    out.featureNames = markerFeatureNames(config);
    out.x = math::Matrix(flows.size(), config.totalBins());
    out.y.resize(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
        std::vector<double> marker = computeFlowMarker(flows[i], config);
        for (std::size_t c = 0; c < marker.size(); ++c)
            out.x(i, c) = marker[c];
        out.y[i] = flows[i].botnet ? 1 : 0;
    }
    return out;
}

ml::Dataset
buildPerPacketDataset(const std::vector<Flow> &flows,
                      const FlowMarkerConfig &config, std::size_t stride)
{
    if (flows.empty())
        throw std::runtime_error("flowmarker: no flows");
    if (stride == 0)
        stride = 1;

    std::size_t num_rows = 0;
    for (const Flow &flow : flows)
        num_rows += (flow.packets.size() + stride - 1) / stride;

    ml::Dataset out;
    out.numClasses = 2;
    out.featureNames = markerFeatureNames(config);
    out.x = math::Matrix(num_rows, config.totalBins());
    out.y.reserve(num_rows);
    // One running marker per flow: prefix k adds packet k-1 to prefix
    // k-1's counts, so each row equals computeFlowMarker(flow, config, k)
    // (integer counts sum exactly) without rescanning from packet 0.
    std::vector<double> marker(config.totalBins());
    std::size_t row = 0;
    for (const Flow &flow : flows) {
        std::fill(marker.begin(), marker.end(), 0.0);
        for (std::size_t i = 0; i < flow.packets.size(); ++i) {
            addPacket(marker, flow, i, config);
            if (i % stride != 0)
                continue;
            std::copy(marker.begin(), marker.end(), out.x.rowPtr(row++));
            out.y.push_back(flow.botnet ? 1 : 0);
        }
    }
    return out;
}

ClassHistograms
averageClassHistograms(const std::vector<Flow> &flows,
                       const FlowMarkerConfig &config)
{
    ClassHistograms out;
    out.benignPl.assign(config.plBins, 0.0);
    out.botnetPl.assign(config.plBins, 0.0);
    out.benignIpt.assign(config.iptBins, 0.0);
    out.botnetIpt.assign(config.iptBins, 0.0);

    std::size_t benign_count = 0, botnet_count = 0;
    for (const Flow &flow : flows) {
        std::vector<double> marker = computeFlowMarker(flow, config);
        auto &pl = flow.botnet ? out.botnetPl : out.benignPl;
        auto &ipt = flow.botnet ? out.botnetIpt : out.benignIpt;
        for (std::size_t b = 0; b < config.plBins; ++b)
            pl[b] += marker[b];
        for (std::size_t b = 0; b < config.iptBins; ++b)
            ipt[b] += marker[config.plBins + b];
        (flow.botnet ? botnet_count : benign_count) += 1;
    }

    auto normalize = [](std::vector<double> &values, std::size_t count) {
        if (count == 0)
            return;
        for (double &v : values)
            v /= static_cast<double>(count);
    };
    normalize(out.benignPl, benign_count);
    normalize(out.botnetPl, botnet_count);
    normalize(out.benignIpt, benign_count);
    normalize(out.botnetIpt, botnet_count);
    return out;
}

}  // namespace homunculus::data
