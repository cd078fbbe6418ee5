"""IP, UDP, and TCP headers -- real bytes, real checksums.

Addresses are single bytes (host index within the cluster); everything
else follows the classic layouts closely enough that checksums,
demultiplexing, and corruption detection behave like the originals.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.atm.crc import internet_checksum

IP_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8
TCP_HEADER_SIZE = 20

PROTO_TCP = 6
PROTO_UDP = 17

_IP = struct.Struct(">BBHHHBBHII")
_UDP = struct.Struct(">HHHH")
_TCP = struct.Struct(">HHIIBBHHH")

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10


@dataclass
class IpDatagram:
    src: int
    dst: int
    proto: int
    payload: bytes
    ttl: int = 64

    def encode(self) -> bytes:
        total = IP_HEADER_SIZE + len(self.payload)
        header = _IP.pack(
            0x45, 0, total, 0, 0, self.ttl, self.proto, 0, self.src, self.dst
        )
        csum = internet_checksum(header)
        header = header[:10] + struct.pack(">H", csum) + header[12:]
        return header + self.payload

    @classmethod
    def decode(cls, raw: bytes) -> "IpDatagram":
        if len(raw) < IP_HEADER_SIZE:
            raise ValueError("short IP datagram")
        (vhl, _tos, total, _id, _frag, ttl, proto, _csum, src, dst) = _IP.unpack(
            raw[:IP_HEADER_SIZE]
        )
        if vhl != 0x45:
            raise ValueError(f"bad IP version/header length 0x{vhl:02x}")
        if internet_checksum(raw[:IP_HEADER_SIZE]) != 0:
            raise ValueError("IP header checksum failure")
        if total > len(raw):
            raise ValueError("truncated IP datagram")
        return cls(
            src=src, dst=dst, proto=proto, ttl=ttl,
            payload=raw[IP_HEADER_SIZE:total],
        )


@dataclass
class UdpPacket:
    src_port: int
    dst_port: int
    payload: bytes
    #: §7.6: the checksum "can be switched off by applications that use
    #: data protection at a higher level".
    with_checksum: bool = True

    def encode(self) -> bytes:
        length = UDP_HEADER_SIZE + len(self.payload)
        header = _UDP.pack(self.src_port, self.dst_port, length, 0)
        if self.with_checksum:
            csum = internet_checksum(header + self.payload)
            csum = csum or 0xFFFF  # 0 means "no checksum" on the wire
            header = header[:6] + struct.pack(">H", csum)
        return header + self.payload

    @classmethod
    def decode(cls, raw: bytes) -> "UdpPacket":
        if len(raw) < UDP_HEADER_SIZE:
            raise ValueError("short UDP packet")
        src_port, dst_port, length, csum = _UDP.unpack(raw[:UDP_HEADER_SIZE])
        if length > len(raw):
            raise ValueError("truncated UDP packet")
        body = raw[UDP_HEADER_SIZE:length]
        if csum != 0:
            # One's-complement property: a valid packet sums to zero
            # when the checksum field is included.  A computed 0 sent
            # as 0xFFFF verifies too: both are zero in one's complement.
            if internet_checksum(raw[:length]) != 0:
                raise ValueError("UDP checksum failure")
        return cls(
            src_port=src_port, dst_port=dst_port, payload=body,
            with_checksum=csum != 0,
        )


@dataclass
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""

    def encode(self) -> bytes:
        header = _TCP.pack(
            self.src_port, self.dst_port, self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF, (5 << 4), self.flags, self.window, 0, 0,
        )
        csum = internet_checksum(header + self.payload)
        header = header[:16] + struct.pack(">H", csum) + header[18:]
        return header + self.payload

    @classmethod
    def decode(cls, raw: bytes) -> "TcpSegment":
        if len(raw) < TCP_HEADER_SIZE:
            raise ValueError("short TCP segment")
        (src, dst, seq, ack, offs, flags, window, csum, _urg) = _TCP.unpack(
            raw[:TCP_HEADER_SIZE]
        )
        header_len = (offs >> 4) * 4
        body = raw[header_len:]
        check = raw[:16] + b"\x00\x00" + raw[18:header_len] + body
        if internet_checksum(check) != csum:
            raise ValueError("TCP checksum failure")
        return cls(
            src_port=src, dst_port=dst, seq=seq, ack=ack, flags=flags,
            window=window, payload=body,
        )

    def flag(self, bit: int) -> bool:
        return bool(self.flags & bit)

    def describe(self) -> str:
        names = [
            name
            for bit, name in [
                (FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"),
                (FLAG_RST, "RST"), (FLAG_PSH, "PSH"),
            ]
            if self.flags & bit
        ]
        return (
            f"TCP {self.src_port}->{self.dst_port} {'|'.join(names) or '-'} "
            f"seq={self.seq} ack={self.ack} win={self.window} len={len(self.payload)}"
        )
