#include "topo/network.h"

#include "sim/assert.h"

namespace aeq::topo {

std::vector<const net::Port*> Network::ports_on(
    const util::BlockPool& buffer) const {
  std::vector<const net::Port*> ports;
  const auto collect = [&](const net::Port& port) {
    if (&port.buffer() == &buffer) ports.push_back(&port);
  };
  for (const auto& host : hosts_) collect(host->egress());
  for (const auto& sw : switches_) {
    for (std::size_t p = 0; p < sw->num_ports(); ++p) collect(sw->port(p));
  }
  return ports;
}

util::BlockPool& Network::add_buffer() {
  buffers_.push_back(std::make_unique<util::BlockPool>());
  return *buffers_.back();
}

net::Host* Network::add_host(std::unique_ptr<net::Host> host) {
  AEQ_ASSERT(host != nullptr);
  AEQ_CHECK_EQ_MSG(host->id(), static_cast<net::HostId>(hosts_.size()),
                   "hosts must be added in id order");
  hosts_.push_back(std::move(host));
  return hosts_.back().get();
}

net::Switch* Network::add_switch(std::unique_ptr<net::Switch> sw) {
  AEQ_ASSERT(sw != nullptr);
  switches_.push_back(std::move(sw));
  return switches_.back().get();
}

}  // namespace aeq::topo
