#include "src/net/transport_spec.h"

#include <map>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/net/sim_network.h"
#include "src/net/tcp_network.h"

namespace dstress::net {

namespace {

constexpr const char* kBuiltins[] = {"sim", "tcp"};

// Overrides installed with RegisterTransport. Built-ins dispatch directly
// (not via static self-registration, which a static-library link would
// silently drop), so "sim" and "tcp" always resolve.
std::mutex registry_mu;
std::map<std::string, TransportFactory>& Registry() {
  static auto* registry = new std::map<std::string, TransportFactory>();
  return *registry;
}

bool IsBuiltin(const std::string& backend) {
  for (const char* name : kBuiltins) {
    if (backend == name) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<Transport> MakeBuiltin(const TransportSpec& spec, int num_nodes) {
  if (spec.backend == "sim") {
    return std::make_unique<SimNetwork>(num_nodes, spec.options);
  }
  if (spec.backend == "tcp") {
    return std::make_unique<TcpNetwork>(num_nodes, spec);
  }
  ::dstress::CheckFailed("unknown transport backend", __FILE__, __LINE__);
}

}  // namespace

TransportSpec SimTransportSpec() {
  TransportSpec spec;
  spec.backend = "sim";
  return spec;
}

TransportSpec TcpTransportSpec(std::string host, int port) {
  TransportSpec spec;
  spec.backend = "tcp";
  spec.host = std::move(host);
  spec.port = port;
  return spec;
}

std::unique_ptr<Transport> MakeSimTransport(int num_nodes) {
  return MakeTransport(SimTransportSpec(), num_nodes);
}

void RegisterTransport(const std::string& backend, TransportFactory factory) {
  DSTRESS_CHECK(factory != nullptr);
  std::lock_guard<std::mutex> lock(registry_mu);
  Registry()[backend] = std::move(factory);
}

void ResetTransport(const std::string& backend) {
  std::lock_guard<std::mutex> lock(registry_mu);
  Registry().erase(backend);
}

bool KnownTransportBackend(const std::string& backend) {
  if (IsBuiltin(backend)) {
    return true;
  }
  std::lock_guard<std::mutex> lock(registry_mu);
  return Registry().count(backend) > 0;
}

std::vector<std::string> KnownTransportBackends() {
  std::vector<std::string> names(std::begin(kBuiltins), std::end(kBuiltins));
  std::lock_guard<std::mutex> lock(registry_mu);
  for (const auto& [name, factory] : Registry()) {
    if (!IsBuiltin(name)) {
      names.push_back(name);
    }
  }
  return names;
}

std::unique_ptr<Transport> MakeTransport(const TransportSpec& spec, int num_nodes) {
  DSTRESS_CHECK(num_nodes > 0);
  TransportFactory factory;
  {
    std::lock_guard<std::mutex> lock(registry_mu);
    auto it = Registry().find(spec.backend);
    if (it != Registry().end()) {
      factory = it->second;
    }
  }
  if (factory) {
    return factory(num_nodes, spec);
  }
  return MakeBuiltin(spec, num_nodes);
}

}  // namespace dstress::net
