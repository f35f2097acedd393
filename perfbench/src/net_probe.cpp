// net probe: the faults grid over loopback TCP through net::Coordinator and
// two in-process WorkerNodes, once direct (timed) and once through a relay
// that counts the bytes and frames crossing the wire.

#include <poll.h>

#include <atomic>
#include <thread>

#include "campaign/runner.hpp"
#include "net/coordinator.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "probes.hpp"

namespace perfbench {

using namespace anonet;

namespace {

constexpr int kWorkers = 2;
constexpr const char* kGrid = "faults";
constexpr const char* kHost = "127.0.0.1";

struct WireCount {
  std::atomic<std::int64_t> bytes{0};
  std::atomic<std::int64_t> frames{0};
};

// Forwards both directions between a worker and the coordinator until
// either side closes, counting bytes and whole frames.
void pump(net::TcpSocket worker, net::TcpSocket upstream, WireCount& count) {
  net::FrameDecoder decoders[2];
  net::TcpSocket* sockets[2] = {&worker, &upstream};
  std::uint8_t buffer[1 << 14];
  while (true) {
    pollfd fds[2] = {{worker.fd(), POLLIN, 0}, {upstream.fd(), POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) return;
    for (int side = 0; side < 2; ++side) {
      if (fds[side].revents == 0) continue;
      const std::size_t got = sockets[side]->read_some(buffer, sizeof buffer);
      if (got == 0) return;  // sockets close on scope exit
      sockets[1 - side]->write_all(buffer, got);
      count.bytes += static_cast<std::int64_t>(got);
      decoders[side].feed(buffer, got);
      while (decoders[side].next().has_value()) ++count.frames;
    }
  }
}

// One coordinator run with kWorkers worker threads. With `count`, workers
// connect through a relay instead of directly.
std::vector<campaign::CellRecord> loopback_run(const std::string& out_path,
                                               WireCount* count,
                                               std::int64_t* reassigned) {
  net::CoordinatorOptions options;
  options.grid = kGrid;
  options.workers = kWorkers;
  options.host = kHost;
  options.out_path = out_path;
  options.resume = false;
  net::Coordinator coordinator(options);
  const std::uint16_t coordinator_port = coordinator.listen();

  net::TcpListener relay;
  std::uint16_t worker_port = coordinator_port;
  if (count != nullptr) {
    relay = net::TcpListener::bind(kHost, 0);
    worker_port = relay.port();
  }

  std::atomic<int> worker_errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&] {
      try {
        net::WorkerOptions worker_options;
        worker_options.host = kHost;
        worker_options.port = worker_port;
        net::WorkerNode(worker_options).run();
      } catch (const std::exception&) {
        ++worker_errors;
      }
    });
  }
  if (count != nullptr) {
    for (int w = 0; w < kWorkers; ++w) {
      net::TcpSocket worker = relay.accept();
      net::TcpSocket upstream = net::connect_tcp(kHost, coordinator_port);
      threads.emplace_back([count, worker = std::move(worker),
                            upstream = std::move(upstream)]() mutable {
        try {
          pump(std::move(worker), std::move(upstream), *count);
        } catch (const std::exception&) {
          // A peer vanishing mid-write ends the relay like a close does.
        }
      });
    }
  }

  std::vector<campaign::CellRecord> records = coordinator.run();
  for (std::thread& t : threads) t.join();
  if (reassigned != nullptr) *reassigned = coordinator.stats().cells_reassigned;
  if (worker_errors != 0) records.clear();  // fails the audit below
  return records;
}

}  // namespace

void net_probe(const Options& options, Spans& spans, AuditReport& audit) {
  const std::string out_path =
      options.work_dir + "/net-" + std::to_string(options.seed) + ".jsonl";

  auto t0 = Clock::now();
  const std::vector<campaign::CellRecord> direct =
      loopback_run(out_path, nullptr, nullptr);
  const double loopback_s = ms_since(t0) / 1000.0;

  campaign::RunnerOptions runner_options;
  runner_options.threads = kWorkers;
  runner_options.resume = false;
  t0 = Clock::now();
  const std::vector<campaign::CellRecord> local =
      campaign::Runner(runner_options).run(campaign::Grid::preset(kGrid));
  const double local_s = ms_since(t0) / 1000.0;

  WireCount count;
  std::int64_t reassigned = 0;
  const std::vector<campaign::CellRecord> relayed =
      loopback_run(out_path, &count, &reassigned);

  spans.add_count("net.loopback_s", loopback_s);
  spans.add_count("net.transport_overhead_s", loopback_s - local_s);
  spans.add_count("net.frames", static_cast<double>(count.frames.load()));
  spans.add_count("net.bytes", static_cast<double>(count.bytes.load()));
  spans.add_count("net.reassigned", static_cast<double>(reassigned));

  // Both distributed runs reproduce the in-process records' semantics.
  Reference reference;
  reference.record(local);
  for (const auto* records : {&direct, &relayed}) {
    const auto expected = static_cast<std::int64_t>(local.size());
    audit.attempted += expected;
    std::int64_t bad = 0;
    if (records->size() != local.size()) {
      bad = expected;
    } else {
      for (const campaign::CellRecord& r : *records) {
        if (!reference.matches(r)) ++bad;
      }
    }
    if (bad > 0) {
      audit.failed += bad;
      audit.note("net probe: " + std::to_string(bad) +
                 " cells differ from the in-process run");
    }
  }
}

}  // namespace perfbench
