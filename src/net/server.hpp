// The socket front-end of the serving tier (`plfoc serve`).
//
// One event thread runs a poll(2) loop over the listening socket, a
// self-wake socketpair and every client connection. Connections speak the
// length-prefixed protocol of net/protocol.hpp; each carries its own
// incremental FrameDecoder, an outbox for queued response bytes and an
// idle clock. Submits are bound to a JobSpec on the event thread (alignment
// loaded from the server-side path, Phylo2Vec trees digest-verified and
// decoded) and handed to the embedded Service, whose FairJobQueue /
// ResultCache / Scheduler stack does the real work. The event thread keeps
// a small memo of bound alignment files: every submit re-reads its file,
// and only byte-identical contents reuse the binding, so an edited file is
// rebound, never served stale. Binding does all per-alignment work once:
// the parse, the taxa digest and a SharedAlignment (service/job.hpp) with
// the empirical frequencies, the cache-key prefix and the pattern
// alignment, which every job over that file version shares by pointer. A
// ready cache hit is answered inside Service::try_submit. Other results
// come back via ServiceOptions::on_complete — worker threads only append
// to a pending list under the server mutex and poke the wake socket; all
// connection state stays single-threaded on the event thread.
//
// Failure containment: a malformed frame (typed ProtocolError) costs that
// one connection; a rejected submit (bad model, digest mismatch, queue
// full, draining) costs one kErrorResponse; nothing reaches the engine.
//
// All raw socket syscalls live in server.cpp — the plfoc-lint `raw-socket`
// rule pins that boundary the same way `raw-io` pins the FileBackend.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"
#include "util/mutex.hpp"

namespace plfoc {

struct JobFileEntry;

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = let the kernel pick an ephemeral port (tests); port() reports the
  /// actual one after start().
  std::uint16_t port = 0;
  std::size_t max_connections = 64;
  /// Close connections silent for longer than this; 0 disables the sweep.
  double idle_timeout_seconds = 300.0;
  std::size_t max_frame_bytes = kMaxFramePayload;
  /// stop(): how long to keep best-effort flushing already-finished
  /// responses to still-connected clients before closing them. Responses
  /// left unsent when the window closes are counted in the drain report
  /// (DrainReport::unsent_frames / unsent_connections).
  double drain_flush_seconds = 2.0;
  /// The embedded service (workers, budget, cache, tenants). The server
  /// installs its own on_complete hook; a caller-provided one is invoked
  /// too, after the response is routed.
  ServiceOptions service;
};

/// Loopback server options for tests and benchmarks: bind 127.0.0.1 on a
/// kernel-assigned ephemeral port, so back-to-back runs can never collide on
/// a fixed port (Server::start() additionally retries a transient
/// EADDRINUSE). Read the actual port back with Server::port().
ServerOptions loopback_server_options(std::size_t workers = 2,
                                      std::size_t queue_capacity = 16);

/// Lifetime counters, readable while the server runs.
struct ServerStats {
  std::uint64_t accepted = 0;         ///< connections accepted
  std::uint64_t closed = 0;           ///< connections closed (any reason)
  std::uint64_t over_limit = 0;       ///< accepts refused at max_connections
  std::uint64_t idle_closed = 0;      ///< closed by the idle sweep
  std::uint64_t protocol_errors = 0;  ///< connections dropped on bad frames
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  ///< calls stop() if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the event thread. Throws plfoc::Error when the
  /// address cannot be bound.
  void start();
  /// The bound port (resolves port 0); valid after start().
  std::uint16_t port() const { return bound_port_; }

  /// Shut down: stop accepting, flush queued-but-unadmitted jobs
  /// (Service::drain(kFlushQueued)), best-effort deliver the already
  /// finished responses, close every connection, join the event thread.
  /// Idempotent; returns the service's per-tenant drain report.
  DrainReport stop();

  Service& service() { return *service_; }
  ServerStats stats() const;

  /// Alignment files the bind memo holds; the least recently used is
  /// dropped beyond this.
  static constexpr std::size_t kAlignmentMemoFiles = 8;

 private:
  struct Connection {
    Socket socket;
    FrameDecoder decoder;
    /// Encoded frames waiting for POLLOUT; offset_ tracks the partial send
    /// position inside the front buffer.
    std::deque<std::vector<std::uint8_t>> outbox;
    std::size_t front_offset = 0;
    double last_activity = 0.0;  ///< seconds on the event loop's clock
  };

  /// One alignment file as handle_submit binds it, keyed by (path, format,
  /// data type) and valid for exactly these bytes.
  struct BoundAlignment {
    std::string path;
    std::string format;
    std::string data_type;
    std::string bytes;
    /// Shared with every job submitted against these bytes; a queued job
    /// keeps it after the file is rebound or dropped from the memo.
    std::shared_ptr<const SharedAlignment> shared;
    std::vector<std::string> sorted_taxa;
    std::uint64_t taxa_digest = 0;  ///< phylo2vec_taxa_digest(sorted_taxa)
  };

  void event_loop();
  /// Process every complete frame buffered on the connection. Returns
  /// false when the connection must be dropped (protocol error).
  bool handle_frames(std::uint64_t conn_id, Connection& conn);
  void handle_submit(std::uint64_t conn_id, Connection& conn,
                     const Frame& frame);
  /// Read the entry's alignment file and return its binding: the memo's
  /// when the bytes are unchanged, a fresh parse otherwise. Throws like
  /// load_entry_alignment.
  const BoundAlignment& bind_alignment(const JobFileEntry& entry);
  void enqueue_frame(Connection& conn, std::vector<std::uint8_t> bytes);
  /// Move externally produced results (worker threads) into outboxes.
  void route_pending_results();
  /// True when the socket went dry but the outbox still holds bytes.
  bool flush_outbox(Connection& conn);
  void drop_connection(std::uint64_t conn_id);
  static ResultResponse make_result_response(std::uint64_t request_id,
                                             const JobResult& result);

  ServerOptions options_;
  std::unique_ptr<Service> service_;
  std::uint16_t bound_port_ = 0;

  Socket listener_;   ///< event thread only (after start())
  Socket wake_recv_;  ///< event thread only
  /// Any thread may poke this to interrupt poll() (1-byte send).
  Socket wake_send_;

  /// Event-thread-only state (no locking; the event thread is the sole
  /// owner between start() and join).
  std::map<std::uint64_t, Connection> connections_;
  std::uint64_t next_conn_id_ = 1;
  /// job id -> (connection id, client request id); routes for results.
  std::map<JobId, std::pair<std::uint64_t, std::uint64_t>> routes_;
  double clock_ = 0.0;  ///< monotonic seconds, refreshed per loop pass
  /// Bound alignment files, most recently used first.
  std::list<BoundAlignment> alignments_;

  mutable Mutex mutex_;
  bool running_ PLFOC_GUARDED_BY(mutex_) = false;
  bool stop_requested_ PLFOC_GUARDED_BY(mutex_) = false;
  /// Results finished by service workers, awaiting routing.
  std::vector<JobResult> pending_results_ PLFOC_GUARDED_BY(mutex_);
  ServerStats stats_ PLFOC_GUARDED_BY(mutex_);

  std::thread event_thread_;
};

}  // namespace plfoc
