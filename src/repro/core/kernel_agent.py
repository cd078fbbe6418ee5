"""The kernel's role in U-Net: set-up, tear-down, authentication (§3.2).

The kernel is *off* the data path entirely.  Its agent on each host
validates endpoint creation against resource limits (pinned memory, NI
memory -- §4.2.4), and mediates channel creation: route discovery,
switch-path setup through the network signalling service,
authentication, and registration of the resulting tag with the NI mux.

:class:`ClusterDirectory` plays the "operating system service" of §3.2
that maps a destination (host, endpoint) to a route/tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.atm.network import AtmNetwork, VciPair
from repro.core.endpoint import Channel, Endpoint
from repro.core.errors import ChannelError, ProtectionError, ResourceLimitError
from repro.host import Workstation


@dataclass
class ResourceLimits:
    """Kernel-enforced limits on NI resources (§4.2.4)."""

    max_endpoints: int = 16
    max_pinned_bytes: int = 4 * 1024 * 1024
    max_segment_bytes: int = 1024 * 1024
    max_ring_entries: int = 1024


#: Authentication hook: (caller_process, local_host, peer_host) -> bool.
AuthCheck = Callable[[str, str, str], bool]


def allow_all(_caller: str, _local: str, _peer: str) -> bool:
    return True


class KernelAgent:
    """Per-host kernel component of U-Net."""

    def __init__(
        self,
        host: Workstation,
        ni,
        directory: "ClusterDirectory",
        limits: Optional[ResourceLimits] = None,
        auth: AuthCheck = allow_all,
    ):
        self.host = host
        self.ni = ni  # the network interface model this kernel controls
        self.limits = limits if limits is not None else ResourceLimits()
        self.auth = auth
        self.endpoints: List[Endpoint] = []
        self.pinned_bytes = 0
        self._next_channel_id = 1
        self.syscalls = 0
        self._emulation = None  # lazy EmulatedUNet (§3.5)
        #: The cluster directory; it tears down both halves of a channel.
        self.directory = directory
        directory.register_agent(self)

    @property
    def emulation(self):
        """The kernel's emulated-endpoint service, created on demand."""
        if self._emulation is None:
            from repro.core.emulated import EmulatedUNet

            self._emulation = EmulatedUNet(self)
        return self._emulation

    # -- endpoint lifecycle ------------------------------------------------
    def create_endpoint(
        self,
        owner: str,
        name: str = "",
        segment_size: int = 64 * 1024,
        send_ring: int = 64,
        recv_ring: int = 64,
        free_ring: int = 64,
        emulated: bool = False,
    ) -> Endpoint:
        """System call: create and register an endpoint for ``owner``.

        ``emulated=True`` creates a kernel-emulated endpoint (§3.5): it
        consumes no NI resources (no pinned memory, does not count
        against the endpoint limit) but every message crosses the kernel.
        """
        self.syscalls += 1
        if emulated:
            endpoint = self.emulation.create_endpoint(
                owner,
                name=name,
                segment_size=segment_size,
                send_ring=send_ring,
                recv_ring=recv_ring,
                free_ring=free_ring,
            )
            self.endpoints.append(endpoint)
            return endpoint
        live = [ep for ep in self.endpoints if not ep.destroyed]
        if len(live) >= self.limits.max_endpoints:
            raise ResourceLimitError(
                f"host {self.host.name}: endpoint limit "
                f"({self.limits.max_endpoints}) reached"
            )
        if segment_size > self.limits.max_segment_bytes:
            raise ResourceLimitError(
                f"segment of {segment_size} bytes exceeds the "
                f"{self.limits.max_segment_bytes}-byte limit (base-level U-Net "
                f"bounds communication segments, §3.3)"
            )
        if self.pinned_bytes + segment_size > self.limits.max_pinned_bytes:
            raise ResourceLimitError(
                f"host {self.host.name}: cannot pin {segment_size} more bytes "
                f"({self.pinned_bytes} of {self.limits.max_pinned_bytes} in use)"
            )
        for ring in (send_ring, recv_ring, free_ring):
            if ring > self.limits.max_ring_entries:
                raise ResourceLimitError(f"ring of {ring} entries exceeds limit")
        endpoint = Endpoint(
            self.host.sim,
            name=name or f"{self.host.name}.ep{len(self.endpoints)}",
            owner=owner,
            segment_size=segment_size,
            send_ring=send_ring,
            recv_ring=recv_ring,
            free_ring=free_ring,
        )
        self.endpoints.append(endpoint)
        self.pinned_bytes += segment_size
        self.ni.attach_endpoint(endpoint)
        return endpoint

    def destroy_endpoint(self, endpoint: Endpoint, caller: str) -> None:
        """System call: tear down an endpoint and all its channels.

        Each channel closes on both sides and its virtual circuit is
        released, as :meth:`ClusterDirectory.disconnect` does, so the
        peer's sends are refused instead of vanishing at this host."""
        self.syscalls += 1
        endpoint.check_owner(caller)
        for channel in list(endpoint.channels.values()):
            if channel.open:
                self.directory.close_channel(channel)
        endpoint.destroy()
        if endpoint.emulated:
            self.emulation.emulated.remove(endpoint)
            self.endpoints.remove(endpoint)
            return
        self.pinned_bytes -= endpoint.segment.size
        self.ni.detach_endpoint(endpoint)

    # -- channel management --------------------------------------------------
    def allocate_channel_id(self) -> int:
        ident = self._next_channel_id
        self._next_channel_id += 1
        return ident

    def install_channel(
        self, endpoint: Endpoint, tx_vci: int, rx_vci: int, peer_host: str
    ) -> Channel:
        """Register an authenticated tag with the NI mux (kernel-only)."""
        if endpoint.emulated:
            return self.emulation.install_channel(endpoint, tx_vci, rx_vci, peer_host)
        channel = Channel(
            ident=self.allocate_channel_id(),
            endpoint=endpoint,
            tx_vci=tx_vci,
            rx_vci=rx_vci,
            peer_host=peer_host,
        )
        self.ni.mux.register(channel)
        endpoint.channels[channel.ident] = channel
        return channel

    def _close_channel_local(self, channel: Channel) -> None:
        if channel.endpoint.emulated:
            self.emulation.close_channel(channel)
            return
        channel.open = False
        self.ni.mux.unregister(channel)


class ClusterDirectory:
    """Cluster-wide OS service: endpoint naming, routes, channel setup.

    Applications advertise endpoints under a service name; a connect
    request resolves the name, authenticates both sides, asks the
    network signalling service for a VCI pair plus switch routes, and
    installs the channel in both kernels' muxes (§3.2).
    """

    def __init__(self, network: AtmNetwork):
        self.network = network
        self._agents: Dict[str, KernelAgent] = {}
        self._services: Dict[str, Tuple[str, Endpoint]] = {}
        self.connects = 0

    def register_agent(self, agent: KernelAgent) -> None:
        name = agent.host.name
        if name in self._agents:
            raise ChannelError(f"host {name!r} already registered")
        self._agents[name] = agent

    def agent(self, host_name: str) -> KernelAgent:
        return self._agents[host_name]

    def advertise(self, service: str, endpoint: Endpoint, caller: str) -> None:
        """Publish ``endpoint`` under ``service`` so peers can connect."""
        endpoint.check_owner(caller)
        if service in self._services:
            raise ChannelError(f"service {service!r} already advertised")
        host = self._find_host(endpoint)
        self._services[service] = (host, endpoint)

    def withdraw(self, service: str, caller: str) -> None:
        host, endpoint = self._services[service]
        endpoint.check_owner(caller)
        del self._services[service]

    def _find_host(self, endpoint: Endpoint) -> str:
        for name, agent in self._agents.items():
            if endpoint in agent.endpoints:
                return name
        raise ChannelError("endpoint is not registered with any kernel agent")

    def connect(
        self, endpoint: Endpoint, service: str, caller: str
    ) -> Tuple[Channel, Channel]:
        """Create a full-duplex channel from ``endpoint`` to ``service``.

        Returns (local_channel, remote_channel).  Raises
        :class:`ProtectionError` if either side's authentication hook
        denies the connection.
        """
        endpoint.check_owner(caller)
        if service not in self._services:
            raise ChannelError(f"unknown service {service!r}")
        remote_host, remote_endpoint = self._services[service]
        if remote_endpoint.destroyed:
            raise ChannelError(f"service {service!r} endpoint was destroyed")
        local_host = self._find_host(endpoint)
        local_agent = self._agents[local_host]
        remote_agent = self._agents[remote_host]
        local_agent.syscalls += 1
        if not local_agent.auth(caller, local_host, remote_host):
            raise ProtectionError(
                f"host {local_host}: {caller!r} denied network access to {remote_host}"
            )
        if not remote_agent.auth(remote_endpoint.owner, remote_host, local_host):
            raise ProtectionError(
                f"host {remote_host}: refused connection from {local_host}"
            )
        pair = self.network.open_virtual_circuit(local_host, remote_host)
        local_channel = local_agent.install_channel(
            endpoint, tx_vci=pair.tx, rx_vci=pair.rx, peer_host=remote_host
        )
        remote_channel = remote_agent.install_channel(
            remote_endpoint, tx_vci=pair.rx, rx_vci=pair.tx, peer_host=local_host
        )
        self.connects += 1
        return local_channel, remote_channel

    def disconnect(self, channel: Channel, caller: str) -> None:
        """Tear down both halves of a full-duplex channel."""
        channel.endpoint.check_owner(caller)
        if not self.close_channel(channel):
            raise ChannelError("peer half of the channel was not found")

    def close_channel(self, channel: Channel) -> bool:
        """Close ``channel``, its peer half and their virtual circuit.
        Returns False, with only the local half closed, if the peer
        half is not found."""
        local_host = self._find_host(channel.endpoint)
        peer_agent = self._agents[channel.peer_host]
        self._agents[local_host]._close_channel_local(channel)
        # Emulated endpoints first: their virtual channels share VCIs with
        # the kernel's real channel and must win the match.
        peer_endpoints = sorted(peer_agent.endpoints, key=lambda e: not e.emulated)
        for endpoint in peer_endpoints:
            if endpoint.owner == "<kernel>":
                continue
            for remote in endpoint.channels.values():
                if (
                    remote.open
                    and remote.tx_vci == channel.rx_vci
                    and remote.rx_vci == channel.tx_vci
                ):
                    peer_agent._close_channel_local(remote)
                    self.network.close_virtual_circuit(
                        local_host,
                        channel.peer_host,
                        VciPair(tx=channel.tx_vci, rx=channel.rx_vci),
                    )
                    return True
        return False
