#include "net/packet.hpp"

#include <cstring>

namespace homunculus::net {

namespace {

void
put16(std::vector<std::uint8_t> &out, std::uint16_t value)
{
    out.push_back(static_cast<std::uint8_t>(value >> 8));
    out.push_back(static_cast<std::uint8_t>(value & 0xFF));
}

void
put32(std::vector<std::uint8_t> &out, std::uint32_t value)
{
    out.push_back(static_cast<std::uint8_t>(value >> 24));
    out.push_back(static_cast<std::uint8_t>((value >> 16) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((value >> 8) & 0xFF));
    out.push_back(static_cast<std::uint8_t>(value & 0xFF));
}

std::uint16_t
get16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

std::size_t
wireSizeOf(bool tcp, bool udp, std::size_t payload_size)
{
    std::size_t size = EthernetHeader::kWireSize + Ipv4Header::kWireSize +
                       payload_size;
    if (tcp)
        size += TcpHeader::kWireSize;
    if (udp)
        size += UdpHeader::kWireSize;
    return size;
}

}  // namespace

std::size_t
RawPacket::wireSize() const
{
    return wireSizeOf(tcp.has_value(), udp.has_value(), payload.size());
}

std::uint16_t
ipv4Checksum(const std::uint8_t *header, std::size_t length)
{
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i + 1 < length; i += 2)
        sum += get16(header + i);
    if (length % 2 == 1)
        sum += static_cast<std::uint32_t>(header[length - 1]) << 8;
    while (sum >> 16)
        sum = (sum & 0xFFFF) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

std::vector<std::uint8_t>
serialize(const RawPacket &packet)
{
    std::vector<std::uint8_t> out;
    out.reserve(packet.wireSize());

    // --- Ethernet ------------------------------------------------------
    out.insert(out.end(), packet.eth.dst.begin(), packet.eth.dst.end());
    out.insert(out.end(), packet.eth.src.begin(), packet.eth.src.end());
    put16(out, packet.eth.etherType);

    // --- IPv4 ------------------------------------------------------------
    std::size_t transport_size =
        packet.tcp ? TcpHeader::kWireSize
                   : (packet.udp ? UdpHeader::kWireSize : 0);
    auto total_length = static_cast<std::uint16_t>(
        Ipv4Header::kWireSize + transport_size + packet.payload.size());

    std::size_t ipv4_start = out.size();
    out.push_back(packet.ipv4.versionIhl);
    out.push_back(packet.ipv4.tos);
    put16(out, total_length);
    put16(out, packet.ipv4.identification);
    put16(out, packet.ipv4.flagsFragment);
    out.push_back(packet.ipv4.ttl);
    out.push_back(packet.ipv4.protocol);
    put16(out, 0);  // checksum placeholder.
    put32(out, packet.ipv4.srcAddr);
    put32(out, packet.ipv4.dstAddr);

    std::uint16_t checksum =
        ipv4Checksum(out.data() + ipv4_start, Ipv4Header::kWireSize);
    out[ipv4_start + 10] = static_cast<std::uint8_t>(checksum >> 8);
    out[ipv4_start + 11] = static_cast<std::uint8_t>(checksum & 0xFF);

    // --- Transport ---------------------------------------------------------
    if (packet.tcp) {
        const TcpHeader &tcp = *packet.tcp;
        put16(out, tcp.srcPort);
        put16(out, tcp.dstPort);
        put32(out, tcp.seq);
        put32(out, tcp.ack);
        out.push_back(static_cast<std::uint8_t>(tcp.dataOffset << 4));
        out.push_back(tcp.flags);
        put16(out, tcp.window);
        put16(out, tcp.checksum);
        put16(out, tcp.urgentPtr);
    } else if (packet.udp) {
        const UdpHeader &udp = *packet.udp;
        put16(out, udp.srcPort);
        put16(out, udp.dstPort);
        put16(out, static_cast<std::uint16_t>(UdpHeader::kWireSize +
                                              packet.payload.size()));
        put16(out, udp.checksum);
    }

    out.insert(out.end(), packet.payload.begin(), packet.payload.end());
    return out;
}

std::size_t
PacketView::wireSize() const
{
    return wireSizeOf(tcp.has_value(), udp.has_value(), payloadSize);
}

PacketView
viewOf(const RawPacket &packet)
{
    PacketView view;
    view.eth = packet.eth;
    view.ipv4 = packet.ipv4;
    view.tcp = packet.tcp;
    view.udp = packet.udp;
    view.payload = packet.payload.data();
    view.payloadSize = packet.payload.size();
    return view;
}

std::optional<PacketView>
parseView(const std::uint8_t *bytes, std::size_t size)
{
    if (size < EthernetHeader::kWireSize + Ipv4Header::kWireSize)
        return std::nullopt;

    PacketView view;
    const std::uint8_t *p = bytes;

    std::memcpy(view.eth.dst.data(), p, 6);
    std::memcpy(view.eth.src.data(), p + 6, 6);
    view.eth.etherType = get16(p + 12);
    if (view.eth.etherType != kEtherTypeIpv4)
        return std::nullopt;
    p += EthernetHeader::kWireSize;

    view.ipv4.versionIhl = p[0];
    if ((view.ipv4.versionIhl >> 4) != 4 ||
        (view.ipv4.versionIhl & 0x0F) != 5)
        return std::nullopt;  // options unsupported by this substrate.
    view.ipv4.tos = p[1];
    view.ipv4.totalLength = get16(p + 2);
    view.ipv4.identification = get16(p + 4);
    view.ipv4.flagsFragment = get16(p + 6);
    view.ipv4.ttl = p[8];
    view.ipv4.protocol = p[9];
    view.ipv4.checksum = get16(p + 10);
    view.ipv4.srcAddr = get32(p + 12);
    view.ipv4.dstAddr = get32(p + 16);

    // Verify the checksum: recompute with the field zeroed.
    std::array<std::uint8_t, Ipv4Header::kWireSize> header_copy;
    std::memcpy(header_copy.data(), p, Ipv4Header::kWireSize);
    header_copy[10] = 0;
    header_copy[11] = 0;
    if (ipv4Checksum(header_copy.data(), Ipv4Header::kWireSize) !=
        view.ipv4.checksum)
        return std::nullopt;
    p += Ipv4Header::kWireSize;

    std::size_t transport_size = 0;
    if (view.ipv4.protocol == kProtoTcp)
        transport_size = TcpHeader::kWireSize;
    else if (view.ipv4.protocol == kProtoUdp)
        transport_size = UdpHeader::kWireSize;
    else
        return std::nullopt;

    // The datagram must hold its own headers and fit in the frame;
    // bytes past it (Ethernet trailer padding) are not payload.
    std::size_t datagram = view.ipv4.totalLength;
    if (datagram < Ipv4Header::kWireSize + transport_size ||
        EthernetHeader::kWireSize + datagram > size)
        return std::nullopt;

    if (view.ipv4.protocol == kProtoTcp) {
        TcpHeader tcp;
        tcp.srcPort = get16(p);
        tcp.dstPort = get16(p + 2);
        tcp.seq = get32(p + 4);
        tcp.ack = get32(p + 8);
        tcp.dataOffset = static_cast<std::uint8_t>(p[12] >> 4);
        tcp.flags = p[13];
        tcp.window = get16(p + 14);
        tcp.checksum = get16(p + 16);
        tcp.urgentPtr = get16(p + 18);
        view.tcp = tcp;
    } else {
        UdpHeader udp;
        udp.srcPort = get16(p);
        udp.dstPort = get16(p + 2);
        udp.length = get16(p + 4);
        udp.checksum = get16(p + 6);
        view.udp = udp;
    }
    view.payload = p + transport_size;
    view.payloadSize = datagram - Ipv4Header::kWireSize - transport_size;
    return view;
}

std::optional<RawPacket>
parse(const std::vector<std::uint8_t> &bytes, double timestamp_sec)
{
    std::optional<PacketView> view = parseView(bytes.data(), bytes.size());
    if (!view)
        return std::nullopt;
    RawPacket packet;
    packet.eth = view->eth;
    packet.ipv4 = view->ipv4;
    packet.tcp = view->tcp;
    packet.udp = view->udp;
    packet.payload.assign(view->payload, view->payload + view->payloadSize);
    packet.timestampSec = timestamp_sec;
    return packet;
}

}  // namespace homunculus::net
