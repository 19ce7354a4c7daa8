#include "traffic/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <vector>

#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "traffic/tcp.hpp"

namespace quicksand::traffic {

namespace {

using netbase::Rng;

/// Mean of the exponential per-packet jitter on every link.
constexpr double kJitterMeanS = 0.002;
/// Seconds between redraws of each link's rate-modulation factor.
constexpr double kRateModulationIntervalS = 0.4;
/// Per-hop flow control: a relay stops draining its upstream socket when
/// this many bytes are already queued for the next hop, stalling the
/// upstream sender through ACK clocking (Tor relays apply exactly this
/// backpressure). Keeps a fast access link from bursting ahead of the
/// circuit bottleneck.
constexpr std::uint64_t kBackpressureBufferBytes = 128u << 10;

enum class EventKind : std::uint8_t { kTrySend, kDataArrival, kAckArrival, kDelayedAck };

struct Event {
  double time = 0;
  std::uint64_t seq = 0;  // FIFO tie-break
  EventKind kind = EventKind::kTrySend;
  int conn = 0;
  std::uint64_t value = 0;  // payload bytes or cumulative ack
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }
};

/// One hop-by-hop TCP connection in the chain.
struct Connection {
  TcpSender sender;
  TcpReceiver receiver;
  LinkParams link;
  double next_free = 0;         // pacing horizon of the data direction
  double last_data_arrival = 0; // FIFO enforcement per direction
  double last_ack_arrival = 0;
  bool try_send_scheduled = false;

  explicit Connection(const LinkParams& link_params)
      : sender(TcpParams{}), receiver(TcpParams{}), link(link_params) {}
};

}  // namespace

FlowTraces SimulateTransfer(const FlowSimParams& params) {
  static obs::Counter& transfers =
      obs::MetricsRegistry::Global().GetCounter("traffic.flow.transfers_simulated");
  transfers.Increment();
  if (params.file_bytes == 0) {
    throw std::invalid_argument("SimulateTransfer: file_bytes must be positive");
  }
  for (const LinkParams& link : params.links) {
    if (link.rate_bytes_per_s <= 0) {
      throw std::invalid_argument("SimulateTransfer: link rates must be positive");
    }
  }

  Rng rng(params.seed);
  const bool download = params.direction == TransferDirection::kDownload;

  // Connections in circuit order; data flows along conn indices
  // 3 -> 2 -> 1 -> 0 for downloads and 0 -> 1 -> 2 -> 3 for uploads.
  std::vector<Connection> conns;
  conns.reserve(4);
  for (const LinkParams& link : params.links) conns.emplace_back(link);

  const int first_conn = download ? 3 : 0;
  const int last_conn = download ? 0 : 3;
  const int step = download ? -1 : 1;

  // Tor cell framing inflates the byte count once, where the raw stream
  // enters the overlay (at the exit for downloads, at the client for
  // uploads). Fractional cells are carried over between segments.
  double cell_carry = 0;
  auto inflate = [&](std::uint64_t bytes) {
    const double exact = static_cast<double>(bytes) * kCellOverhead + cell_carry;
    const auto whole = static_cast<std::uint64_t>(exact);
    cell_carry = exact - static_cast<double>(whole);
    return whole;
  };

  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  std::uint64_t next_seq = 0;
  auto schedule = [&](double time, EventKind kind, int conn, std::uint64_t value) {
    queue.push(Event{time, next_seq++, kind, conn, value});
  };

  FlowTraces traces;
  traces.client_guard.name = "client<->guard";
  traces.exit_server.name = "exit<->server";

  // Tap recording. On each tapped connection, data packets travel in the
  // transfer direction and ACKs in the opposite one. For downloads, data
  // is guard->client (b_to_a) and server->exit (b_to_a); for uploads the
  // directions flip.
  auto record_data = [&](int conn, double now, std::uint32_t bytes) {
    SegmentTap* tap = conn == 0 ? &traces.client_guard
                                : (conn == 3 ? &traces.exit_server : nullptr);
    if (tap == nullptr) return;
    auto& stream = download ? tap->b_to_a : tap->a_to_b;
    stream.push_back(PacketRecord{now, bytes, 0, false});
  };
  auto record_ack = [&](int conn, double now, std::uint64_t cumulative) {
    SegmentTap* tap = conn == 0 ? &traces.client_guard
                                : (conn == 3 ? &traces.exit_server : nullptr);
    if (tap == nullptr) return;
    auto& stream = download ? tap->a_to_b : tap->b_to_a;
    stream.push_back(PacketRecord{now, 0, cumulative, true});
  };

  // Deterministic per-(connection, interval) cross-traffic factor.
  auto modulated_rate = [&](int c, double now) {
    const auto interval = static_cast<std::uint64_t>(now / kRateModulationIntervalS);
    std::uint64_t z = params.seed ^ (0x9E3779B97F4A7C15ULL * (interval + 1)) ^
                      (0xBF58476D1CE4E5B9ULL * static_cast<std::uint64_t>(c + 1));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const double unit = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
    const double factor = 1.0 + kRateModulationSpread * (2.0 * unit - 1.0);
    return conns[c].link.rate_bytes_per_s * factor;
  };

  // try_send never clears try_send_scheduled itself: only the scheduled
  // kTrySend event does (in the event loop). Otherwise every ack or data
  // arrival would enqueue a duplicate pacing event that re-enqueues itself
  // each slot, growing the queue linearly over the transfer.
  auto try_send = [&](int c, double now) {
    Connection& conn = conns[c];
    while (conn.sender.CanSend() && conn.next_free <= now) {
      const std::uint32_t seg = conn.sender.EmitSegment();
      record_data(c, now, seg);
      double arrival = now + conn.link.delay_fwd_s + rng.Exponential(kJitterMeanS);
      arrival = std::max(arrival, conn.last_data_arrival);  // FIFO link
      conn.last_data_arrival = arrival;
      schedule(arrival, EventKind::kDataArrival, c, seg);
      conn.next_free = std::max(conn.next_free, now) +
                       static_cast<double>(seg) / modulated_rate(c, now);
    }
    if (conn.sender.CanSend() && !conn.try_send_scheduled) {
      conn.try_send_scheduled = true;
      schedule(conn.next_free, EventKind::kTrySend, c, 0);
    }
  };

  auto send_ack = [&](int c, double now, std::uint64_t cumulative) {
    Connection& conn = conns[c];
    record_ack(c, now, cumulative);
    double arrival = now + conn.link.delay_rev_s + rng.Exponential(kJitterMeanS);
    arrival = std::max(arrival, conn.last_ack_arrival);
    conn.last_ack_arrival = arrival;
    schedule(arrival, EventKind::kAckArrival, c, cumulative);
  };

  // Kick off: the origin endpoint enqueues the whole file.
  conns[first_conn].sender.Enqueue(params.file_bytes);
  conns[first_conn].next_free = params.start_time_s;
  schedule(params.start_time_s, EventKind::kTrySend, first_conn, 0);

  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    if (event.time > kMaxSimTimeS) break;
    Connection& conn = conns[event.conn];
    switch (event.kind) {
      case EventKind::kTrySend:
        conn.try_send_scheduled = false;
        try_send(event.conn, event.time);
        break;
      case EventKind::kDataArrival: {
        // Backpressure: if this node's downstream queue is full, leave the
        // segment in the (upstream) socket buffer and retry shortly; the
        // unsent ACK stalls the upstream sender via its window.
        if (event.conn != last_conn) {
          const int next = event.conn + step;
          if (conns[next].sender.buffered() >= kBackpressureBufferBytes) {
            schedule(event.time + 0.005, EventKind::kDataArrival, event.conn,
                     event.value);
            break;
          }
        }
        const auto decision =
            conn.receiver.OnSegment(static_cast<std::uint32_t>(event.value), event.time);
        if (decision.ack_now) send_ack(event.conn, event.time, *decision.ack_now);
        if (decision.arm_timer_at) {
          schedule(*decision.arm_timer_at, EventKind::kDelayedAck, event.conn, 0);
        }
        if (event.conn == last_conn) {
          traces.delivered_bytes += event.value;
          traces.completion_time_s = event.time;
        } else {
          const int next = event.conn + step;
          const bool entering_tor = event.conn == first_conn;
          const std::uint64_t forwarded = entering_tor ? inflate(event.value) : event.value;
          conns[next].sender.Enqueue(forwarded);
          try_send(next, event.time);
        }
        break;
      }
      case EventKind::kAckArrival:
        conn.sender.OnAck(event.value);
        try_send(event.conn, event.time);
        break;
      case EventKind::kDelayedAck: {
        const auto ack = conn.receiver.OnDelayedAckTimer();
        if (ack) send_ack(event.conn, event.time, *ack);
        break;
      }
    }
  }

  return traces;
}

}  // namespace quicksand::traffic
