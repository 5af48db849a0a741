// Owning container for a built topology: packet buffers, hosts, switches,
// and convenience accessors for the instrumented ports (each host's
// downlink is the usual oversubscription point in the paper's experiments).
#pragma once

#include <memory>
#include <vector>

#include "net/host.h"
#include "net/switch.h"
#include "util/block_fifo.h"

namespace aeq::topo {

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  net::Host& host(net::HostId id) {
    return *hosts_.at(static_cast<std::size_t>(id));
  }
  const net::Host& host(net::HostId id) const {
    return *hosts_.at(static_cast<std::size_t>(id));
  }
  std::size_t num_hosts() const { return hosts_.size(); }

  net::Switch& fabric_switch(std::size_t i) { return *switches_.at(i); }
  const net::Switch& fabric_switch(std::size_t i) const {
    return *switches_.at(i);
  }
  std::size_t num_switches() const { return switches_.size(); }

  // The switch egress port that feeds host `id` (its downlink).
  net::Port& downlink(net::HostId id) {
    return *downlinks_.at(static_cast<std::size_t>(id));
  }
  const net::Port& downlink(net::HostId id) const {
    return *downlinks_.at(static_cast<std::size_t>(id));
  }

  // The packet buffer of shard `shard` (a serial topology has one): every
  // queue and link FIFO of the shard's ports takes its blocks from it.
  util::BlockPool& buffer(std::size_t shard) { return *buffers_.at(shard); }
  std::size_t num_buffers() const { return buffers_.size(); }

  // Every port whose FIFOs live in `buffer`: host NICs in id order, then
  // each switch's egress ports.
  std::vector<const net::Port*> ports_on(const util::BlockPool& buffer) const;

  // Builder API.
  util::BlockPool& add_buffer();
  net::Host* add_host(std::unique_ptr<net::Host> host);
  net::Switch* add_switch(std::unique_ptr<net::Switch> sw);
  void register_downlink(net::Port* port) { downlinks_.push_back(port); }

 private:
  // Declared first so they are destroyed last: a port's FIFOs give their
  // blocks back to its buffer when the port is destroyed.
  std::vector<std::unique_ptr<util::BlockPool>> buffers_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  std::vector<net::Port*> downlinks_;  // indexed by host id
};

}  // namespace aeq::topo
