/**
 * @file
 * Raw packet headers and wire-format (de)serialization.
 *
 * The data-plane pipelines Homunculus generates begin with packet
 * parsing and feature extraction (paper Figure 5's first two template
 * stages). This module provides the packet substrate: Ethernet, IPv4,
 * TCP and UDP headers with big-endian serialization, an IPv4 header
 * checksum, and a parser that recovers the header stack from bytes —
 * the same job the emitted P4 parser / Spatial StreamIn front-end does
 * on hardware.
 */
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace homunculus::net {

using MacAddress = std::array<std::uint8_t, 6>;

/** EtherType values this substrate understands. */
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

/** IPv4 protocol numbers. */
constexpr std::uint8_t kProtoTcp = 6;
constexpr std::uint8_t kProtoUdp = 17;

/** 14-byte Ethernet II header. */
struct EthernetHeader
{
    MacAddress dst{};
    MacAddress src{};
    std::uint16_t etherType = kEtherTypeIpv4;

    static constexpr std::size_t kWireSize = 14;
};

/** 20-byte IPv4 header (no options). */
struct Ipv4Header
{
    std::uint8_t versionIhl = 0x45;   ///< version 4, IHL 5.
    std::uint8_t tos = 0;
    std::uint16_t totalLength = 0;
    std::uint16_t identification = 0;
    std::uint16_t flagsFragment = 0;
    std::uint8_t ttl = 64;
    std::uint8_t protocol = kProtoTcp;
    std::uint16_t checksum = 0;       ///< filled by serialize().
    std::uint32_t srcAddr = 0;
    std::uint32_t dstAddr = 0;

    static constexpr std::size_t kWireSize = 20;
};

/** 20-byte TCP header (no options). */
struct TcpHeader
{
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::uint8_t dataOffset = 5;  ///< 32-bit words.
    std::uint8_t flags = 0;
    std::uint16_t window = 0;
    std::uint16_t checksum = 0;
    std::uint16_t urgentPtr = 0;

    static constexpr std::size_t kWireSize = 20;
};

/** 8-byte UDP header. */
struct UdpHeader
{
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint16_t length = 0;
    std::uint16_t checksum = 0;

    static constexpr std::size_t kWireSize = 8;
};

/** A full parsed packet: header stack + payload + arrival time. */
struct RawPacket
{
    EthernetHeader eth;
    Ipv4Header ipv4;
    std::optional<TcpHeader> tcp;   ///< exactly one of tcp/udp is set.
    std::optional<UdpHeader> udp;
    std::vector<std::uint8_t> payload;
    double timestampSec = 0.0;

    /** On-wire length (headers + payload). */
    std::size_t wireSize() const;
};

/**
 * A parsed frame that does not own its payload: the header stack plus a
 * pointer/length into the caller's frame buffer. The view is valid only
 * while that buffer is alive and unchanged. It lets the serving front
 * door extract features from a frame without copying the payload into a
 * RawPacket.
 */
struct PacketView
{
    EthernetHeader eth;
    Ipv4Header ipv4;
    std::optional<TcpHeader> tcp;   ///< exactly one of tcp/udp is set.
    std::optional<UdpHeader> udp;
    const std::uint8_t *payload = nullptr;
    std::size_t payloadSize = 0;

    /** On-wire length (headers + payload), as RawPacket::wireSize. */
    std::size_t wireSize() const;
};

/** A view of @p packet's headers and payload (valid while it lives). */
PacketView viewOf(const RawPacket &packet);

/** Compute the standard 16-bit ones-complement IPv4 header checksum. */
std::uint16_t ipv4Checksum(const std::uint8_t *header, std::size_t length);

/**
 * Serialize a packet to its wire format. Fills ipv4.totalLength and the
 * IPv4 checksum; transport checksums are left zero (as many NIC offloads
 * would on transmit).
 */
std::vector<std::uint8_t> serialize(const RawPacket &packet);

/**
 * Parse a wire-format buffer's headers without copying the payload.
 * The payload is the IPv4 datagram's bytes after the transport header,
 * bounded by ipv4.totalLength: Ethernet trailer padding past the
 * datagram is not payload.
 *
 * @return the view (pointing into @p bytes), or std::nullopt when the
 *         buffer is truncated, shorter than its totalLength, not IPv4,
 *         carries an unknown transport, fails the checksum, or declares
 *         a totalLength smaller than its own headers.
 */
std::optional<PacketView> parseView(const std::uint8_t *bytes,
                                    std::size_t size);

/**
 * Parse a wire-format buffer back into a packet: parseView() plus a
 * copy of the payload.
 *
 * @return the packet, or std::nullopt when parseView() rejects the
 *         buffer.
 */
std::optional<RawPacket> parse(const std::vector<std::uint8_t> &bytes,
                               double timestamp_sec = 0.0);

}  // namespace homunculus::net
