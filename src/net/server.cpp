// The single TU allowed to make raw socket syscalls (plfoc-lint rule
// `raw-socket`): the Socket primitives and the Server event loop both
// live here so the whole network syscall surface is auditable in one file.
#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "search/stepwise.hpp"
#include "service/jobfile.hpp"
#include "tree/phylo2vec.hpp"
#include "util/checks.hpp"
#include "util/rng.hpp"

namespace plfoc {
namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PLFOC_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "cannot make socket non-blocking");
}

/// make_job_spec tags errors with the (meaningless, for wire submits)
/// "jobfile line 0:" prefix; strip it before it reaches a client.
std::string strip_line_tag(std::string what) {
  const std::string tag = "jobfile line 0: ";
  if (what.compare(0, tag.size(), tag) == 0) what.erase(0, tag.size());
  return what;
}

}  // namespace

void Socket::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::connect_to(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  PLFOC_REQUIRE(rc == 0 && results != nullptr,
                "cannot resolve '" + host + "': " + ::gai_strerror(rc));
  int fd = -1;
  for (const addrinfo* entry = results; entry; entry = entry->ai_next) {
    fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  PLFOC_REQUIRE(fd >= 0, "cannot connect to " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

void Socket::send_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      PLFOC_REQUIRE(false,
                    std::string("send failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t Socket::recv_some(std::uint8_t* data, std::size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    PLFOC_REQUIRE(false, std::string("recv failed: ") + std::strerror(errno));
  }
}

ServerOptions loopback_server_options(std::size_t workers,
                                      std::size_t queue_capacity) {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // kernel-assigned ephemeral
  options.service.workers = workers;
  options.service.queue_capacity = queue_capacity;
  return options;
}

Server::Server(ServerOptions options) : options_(std::move(options)) {
  // Self-wake channel, created before the Service so on_complete can poke
  // it from day one. A socketpair (not a pipe) keeps the wake path inside
  // the raw-socket boundary instead of the raw-io one.
  int pair[2] = {-1, -1};
  PLFOC_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) == 0,
                "cannot create wake socketpair");
  wake_recv_ = Socket(pair[0]);
  wake_send_ = Socket(pair[1]);
  set_nonblocking(wake_recv_.fd());
  set_nonblocking(wake_send_.fd());

  ServiceOptions service_options = options_.service;
  auto user_hook = service_options.on_complete;
  service_options.on_complete = [this, user_hook](const JobResult& result) {
    {
      MutexLock lock(mutex_);
      pending_results_.push_back(result);
    }
    const std::uint8_t byte = 1;
    ::send(wake_send_.fd(), &byte, 1, MSG_NOSIGNAL);
    if (user_hook) user_hook(result);
  };
  service_ = std::make_unique<Service>(std::move(service_options));
}

Server::~Server() { stop(); }

void Server::start() {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(options_.host.c_str(),
                    std::to_string(options_.port).c_str(), &hints, &results);
  PLFOC_REQUIRE(rc == 0 && results != nullptr,
                "cannot resolve listen address '" + options_.host +
                    "': " + ::gai_strerror(rc));
  int fd = -1;
  for (const addrinfo* entry = results; entry; entry = entry->ai_next) {
    fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    // A fixed port can sit in TIME_WAIT from a previous listener that had
    // live connections when it closed (SO_REUSEADDR does not cover every
    // such state on all hosts) — the classic source of flaky EADDRINUSE in
    // back-to-back test runs. Retry briefly instead of failing on the
    // first collision; any other errno fails immediately as before.
    bool bound = false;
    for (int attempt = 0; attempt < 5; ++attempt) {
      if (::bind(fd, entry->ai_addr, entry->ai_addrlen) == 0) {
        bound = true;
        break;
      }
      if (errno != EADDRINUSE) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (bound && ::listen(fd, 64) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  PLFOC_REQUIRE(fd >= 0, "cannot listen on " + options_.host + ":" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
  listener_ = Socket(fd);
  set_nonblocking(listener_.fd());

  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  PLFOC_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                              &bound_len) == 0,
                "getsockname failed");
  if (bound.ss_family == AF_INET) {
    bound_port_ =
        ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
  } else {
    bound_port_ =
        ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
  }

  {
    MutexLock lock(mutex_);
    running_ = true;
    stop_requested_ = false;
  }
  event_thread_ = std::thread([this] { event_loop(); });
}

DrainReport Server::stop() {
  {
    MutexLock lock(mutex_);
    stop_requested_ = true;
  }
  const std::uint8_t byte = 1;
  ::send(wake_send_.fd(), &byte, 1, MSG_NOSIGNAL);
  if (event_thread_.joinable()) event_thread_.join();

  // Workers finish their in-flight jobs here; the queued backlog is
  // cancelled per tenant. on_complete keeps appending to
  // pending_results_, which we deliver below — the event thread is
  // joined, so its state is safe to touch from this thread now.
  DrainReport report = service_->drain(DrainMode::kFlushQueued);
  route_pending_results();
  const double deadline = monotonic_seconds() + options_.drain_flush_seconds;
  for (auto& [id, conn] : connections_) {
    while (!conn.outbox.empty() && monotonic_seconds() < deadline) {
      pollfd pfd{conn.socket.fd(), POLLOUT, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      if (!flush_outbox(conn)) break;
    }
  }
  // Make abandoned responses observable: a drain report that says "clean"
  // while frames died in outboxes would hide exactly the loss the flush
  // window is meant to bound.
  for (const auto& [id, conn] : connections_) {
    if (conn.outbox.empty()) continue;
    ++report.unsent_connections;
    report.unsent_frames += conn.outbox.size();
  }
  {
    MutexLock lock(mutex_);
    stats_.closed += connections_.size();
    running_ = false;
  }
  connections_.clear();
  routes_.clear();
  listener_.reset();
  return report;
}

ServerStats Server::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void Server::event_loop() {
  clock_ = monotonic_seconds();
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // parallel to fds, 0 for non-conns
  std::uint8_t scratch[4096];
  for (;;) {
    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_recv_.fd(), POLLIN, 0});
    fd_conn.push_back(0);
    fds.push_back({listener_.fd(), POLLIN, 0});
    fd_conn.push_back(0);
    for (auto& [id, conn] : connections_) {
      short events = POLLIN;
      if (!conn.outbox.empty()) events |= POLLOUT;
      fds.push_back({conn.socket.fd(), events, 0});
      fd_conn.push_back(id);
    }
    const int timeout_ms = options_.idle_timeout_seconds > 0 ? 200 : 1000;
    ::poll(fds.data(), fds.size(), timeout_ms);
    clock_ = monotonic_seconds();

    if (fds[0].revents & POLLIN) {
      while (::recv(wake_recv_.fd(), scratch, sizeof(scratch), 0) > 0) {
      }
    }
    route_pending_results();
    {
      MutexLock lock(mutex_);
      if (stop_requested_) return;
    }

    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd < 0) break;
        if (connections_.size() >= options_.max_connections) {
          // Count before the close: a client that sees EOF must already
          // find the rejection in stats().
          {
            MutexLock lock(mutex_);
            ++stats_.over_limit;
          }
          ::close(fd);
          continue;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Connection conn;
        conn.socket = Socket(fd);
        conn.decoder = FrameDecoder(options_.max_frame_bytes);
        conn.last_activity = clock_;
        connections_.emplace(next_conn_id_++, std::move(conn));
        MutexLock lock(mutex_);
        ++stats_.accepted;
      }
    }

    std::vector<std::uint64_t> doomed;
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const std::uint64_t conn_id = fd_conn[i];
      auto it = connections_.find(conn_id);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      bool drop = (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      if (!drop && (fds[i].revents & POLLIN)) {
        for (;;) {
          const ssize_t n =
              ::recv(conn.socket.fd(), scratch, sizeof(scratch), 0);
          if (n > 0) {
            conn.decoder.append(scratch, static_cast<std::size_t>(n));
            conn.last_activity = clock_;
            continue;
          }
          if (n == 0) drop = true;  // orderly shutdown
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) drop = true;
          break;
        }
        if (!drop && !handle_frames(conn_id, conn)) {
          MutexLock lock(mutex_);
          ++stats_.protocol_errors;
          drop = true;
        }
      }
      if (!drop && !conn.outbox.empty() && !flush_outbox(conn)) drop = true;
      if (drop) doomed.push_back(conn_id);
    }
    for (const std::uint64_t conn_id : doomed) drop_connection(conn_id);

    if (options_.idle_timeout_seconds > 0) {
      doomed.clear();
      for (const auto& [id, conn] : connections_) {
        if (clock_ - conn.last_activity > options_.idle_timeout_seconds)
          doomed.push_back(id);
      }
      for (const std::uint64_t conn_id : doomed) {
        {
          MutexLock lock(mutex_);
          ++stats_.idle_closed;  // before the close, as for over_limit
        }
        drop_connection(conn_id);
      }
    }
  }
}

bool Server::handle_frames(std::uint64_t conn_id, Connection& conn) {
  try {
    while (std::optional<Frame> frame = conn.decoder.next()) {
      {
        MutexLock lock(mutex_);
        ++stats_.frames_in;
      }
      switch (frame->type) {
        case MessageType::kPing:
          enqueue_frame(conn, encode_pong());
          break;
        case MessageType::kStatsRequest: {
          const StatsRequest request = decode_stats_request(*frame);
          StatsResponse response;
          response.request_id = request.request_id;
          const CacheStats cache = service_->cache_stats();
          response.cache_lookups = cache.lookups;
          response.cache_hits = cache.hits;
          response.cache_misses = cache.misses;
          response.cache_coalesced = cache.coalesced;
          response.queued_jobs = service_->queued_jobs();
          for (const auto& [tenant, stats] : service_->tenant_stats()) {
            response.tenants.push_back({tenant, stats.submitted,
                                        stats.completed, stats.failed,
                                        stats.cancelled, stats.cache_hits,
                                        stats.expired, stats.shed});
          }
          enqueue_frame(conn, encode_stats_response(response));
          break;
        }
        case MessageType::kSubmitRequest:
          handle_submit(conn_id, conn, *frame);
          break;
        default:
          // A server never receives responses; answer rather than kill the
          // connection so a confused client can see what it did.
          enqueue_frame(conn,
                        encode_error_response(
                            {0, WireErrorCode::kBadRequest,
                             "unexpected message type on a server"}));
          break;
      }
    }
    return true;
  } catch (const ProtocolError&) {
    // Malformed bytes: the stream offset is untrustworthy from here on, so
    // the connection dies (the counter is bumped by the caller).
    return false;
  }
}

void Server::handle_submit(std::uint64_t conn_id, Connection& conn,
                           const Frame& frame) {
  const SubmitRequest msg = decode_submit_request(frame);
  try {
    JobFileEntry entry;
    entry.msa_path = msg.msa_path;
    entry.tree_path = "-";
    entry.model = msg.model;
    entry.backend = msg.backend;
    entry.ram_fraction = msg.ram_fraction;
    entry.name = msg.name;
    entry.format = msg.format;
    entry.data_type = msg.data_type;
    entry.strategy = msg.strategy;
    entry.kappa = msg.kappa;
    entry.categories = msg.categories;
    entry.alpha = msg.alpha;
    entry.seed = msg.seed;
    entry.budget_bytes = msg.budget_bytes;
    entry.threads = msg.threads;

    const BoundAlignment& bound = bind_alignment(entry);
    Tree tree = [&] {
      if (msg.tree_kind == WireTreeKind::kPhylo2Vec) {
        PLFOC_REQUIRE(bound.taxa_digest == msg.taxa_digest,
                      "taxa digest mismatch: the tree was encoded against "
                      "a different taxon set than the alignment");
        Phylo2Vec encoding{bound.sorted_taxa, msg.tree_v, msg.tree_lengths};
        phylo2vec_validate(encoding);
        return phylo2vec_decode(encoding);
      }
      Rng rng(msg.seed);
      return stepwise_addition_tree(bound.shared->alignment, rng);
    }();
    JobSpec spec = make_job_spec(entry, bound.shared, std::move(tree));
    spec.tenant = msg.tenant;
    // v2 deadline (ms on the wire; 0 = none). Armed by the service at
    // accept time, so the clock starts here — queue time counts.
    spec.deadline_seconds = static_cast<double>(msg.deadline_ms) / 1000.0;

    const std::optional<JobId> id = service_->try_submit(std::move(spec));
    if (!id) {
      enqueue_frame(conn, encode_error_response(
                              {msg.request_id, WireErrorCode::kBusy,
                               "job queue is full; retry later"}));
      return;
    }
    routes_[*id] = {conn_id, msg.request_id};
  } catch (const Error& error) {
    bool stopping;
    {
      MutexLock lock(mutex_);
      stopping = stop_requested_;
    }
    enqueue_frame(conn,
                  encode_error_response({msg.request_id,
                                         stopping ? WireErrorCode::kShutdown
                                                  : WireErrorCode::kBadRequest,
                                         strip_line_tag(error.what())}));
  }
}

const Server::BoundAlignment& Server::bind_alignment(
    const JobFileEntry& entry) {
  std::string bytes = read_entry_alignment_bytes(entry);
  const auto it = std::find_if(
      alignments_.begin(), alignments_.end(), [&](const BoundAlignment& b) {
        return b.path == entry.msa_path && b.format == entry.format &&
               b.data_type == entry.data_type;
      });
  if (it != alignments_.end()) {
    if (it->bytes == bytes) {
      alignments_.splice(alignments_.begin(), alignments_, it);
      return alignments_.front();
    }
    alignments_.erase(it);  // the file changed since it was bound
  }
  BoundAlignment bound;
  bound.shared = share_alignment(parse_entry_alignment(entry, bytes));
  const Alignment& alignment = bound.shared->alignment;
  for (std::size_t i = 0; i < alignment.num_taxa(); ++i)
    bound.sorted_taxa.push_back(alignment.name(i));
  std::sort(bound.sorted_taxa.begin(), bound.sorted_taxa.end());
  bound.taxa_digest = phylo2vec_taxa_digest(bound.sorted_taxa);
  bound.path = entry.msa_path;
  bound.format = entry.format;
  bound.data_type = entry.data_type;
  bound.bytes = std::move(bytes);
  alignments_.push_front(std::move(bound));
  if (alignments_.size() > kAlignmentMemoFiles) alignments_.pop_back();
  return alignments_.front();
}

void Server::enqueue_frame(Connection& conn, std::vector<std::uint8_t> bytes) {
  conn.outbox.push_back(std::move(bytes));
  MutexLock lock(mutex_);
  ++stats_.frames_out;
}

void Server::route_pending_results() {
  std::vector<JobResult> batch;
  {
    MutexLock lock(mutex_);
    batch.swap(pending_results_);
  }
  for (const JobResult& result : batch) {
    auto route = routes_.find(result.id);
    if (route == routes_.end()) continue;  // in-process submit, not ours
    const auto [conn_id, request_id] = route->second;
    routes_.erase(route);
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) continue;  // client went away
    enqueue_frame(it->second,
                  encode_result_response(
                      make_result_response(request_id, result)));
  }
}

bool Server::flush_outbox(Connection& conn) {
  while (!conn.outbox.empty()) {
    const std::vector<std::uint8_t>& front = conn.outbox.front();
    const ssize_t n =
        ::send(conn.socket.fd(), front.data() + conn.front_offset,
               front.size() - conn.front_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn.front_offset += static_cast<std::size_t>(n);
    if (conn.front_offset == front.size()) {
      conn.outbox.pop_front();
      conn.front_offset = 0;
    }
  }
  return true;
}

void Server::drop_connection(std::uint64_t conn_id) {
  {
    MutexLock lock(mutex_);
    ++stats_.closed;
  }
  connections_.erase(conn_id);  // the Socket destructor closes the fd
}

ResultResponse Server::make_result_response(std::uint64_t request_id,
                                            const JobResult& result) {
  ResultResponse response;
  response.request_id = request_id;
  response.job_id = result.id;
  response.status = static_cast<std::uint8_t>(result.status);
  response.logl_bits = std::bit_cast<std::uint64_t>(result.log_likelihood);
  if (result.degraded) response.flags |= kResultDegraded;
  if (result.cache_hit) response.flags |= kResultCacheHit;
  if (result.io_failure) response.flags |= kResultIoFailure;
  if (result.integrity_failure) response.flags |= kResultIntegrityFailure;
  if (result.status == JobStatus::kDeadlineExceeded)
    response.flags |= kResultDeadlineExceeded;
  if (result.status == JobStatus::kCancelled)
    response.flags |= kResultCancelled;
  if (result.status == JobStatus::kOverloaded)
    response.flags |= kResultOverloaded;
  response.error = result.error;
  response.wall_seconds = result.wall_seconds;
  response.queue_seconds = result.queue_seconds;
  response.backend = backend_name(result.admitted_backend);
  response.attempts = result.attempts;
  return response;
}

}  // namespace plfoc
