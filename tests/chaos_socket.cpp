#include "chaos_socket.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/checks.hpp"

namespace plfoc {
namespace {

void stall_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

const char* chaos_mode_name(ChaosMode mode) {
  switch (mode) {
    case ChaosMode::kMidFrameDisconnect:
      return "mid-frame-disconnect";
    case ChaosMode::kTrickle:
      return "trickle";
    case ChaosMode::kSlowLoris:
      return "slow-loris";
  }
  return "unknown";
}

ChaosSocket::ChaosSocket(const std::string& host, std::uint16_t port,
                         std::uint64_t seed, ChaosMode mode)
    : socket_(Socket::connect_to(host, port)),
      rng_(seed),
      seed_(seed),
      mode_(mode) {}

ChaosSocket::~ChaosSocket() {
  // Half the teardowns are abortive (RST), half orderly (FIN): the server
  // must shrug off both. Drawn from the seeded stream so a trial replays.
  if (socket_.valid() && rng_.below(2) == 0) abort_close();
}

void ChaosSocket::abort_close() {
  if (!socket_.valid()) return;
  struct linger hard = {};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  // Best effort: a failed setsockopt just downgrades RST to FIN.
  ::setsockopt(socket_.fd(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  socket_.reset();
}

bool ChaosSocket::send_chunk(const std::uint8_t* data, std::size_t size,
                             ChaosReport* report) {
  if (!socket_.valid()) return false;
  try {
    socket_.send_all(data, size);
  } catch (const Error&) {
    // EPIPE/ECONNRESET: the server dropped us. For a chaos client that is
    // an outcome to record, not a failure to propagate.
    report->peer_closed = true;
    socket_.reset();
    return false;
  }
  report->bytes_sent += size;
  return true;
}

ChaosReport ChaosSocket::run(const std::uint8_t* frame, std::size_t size) {
  ChaosReport report;
  PLFOC_REQUIRE(size > 0, "chaos script needs a non-empty frame");
  switch (mode_) {
    case ChaosMode::kMidFrameDisconnect: {
      // Deliver a strict prefix — never the whole frame — then vanish.
      // cut in [1, size): at least one byte so the decoder has started.
      const std::size_t cut =
          1 + static_cast<std::size_t>(rng_.below(size > 1 ? size - 1 : 1));
      send_chunk(frame, std::min(cut, size - 1), &report);
      abort_close();
      break;
    }
    case ChaosMode::kTrickle: {
      // Every byte arrives, but one syscall at a time with short stalls —
      // the frame decoder must reassemble across dozens of reads. Then
      // read the response back just as slowly.
      for (std::size_t i = 0; i < size; ++i) {
        if (!send_chunk(frame + i, 1, &report)) return report;
        if (rng_.below(4) == 0) stall_ms(1 + rng_.below(3));
      }
      // Trickle-read until the peer closes or ~one response frame worth
      // of bytes has arrived (the scripted client does not decode).
      std::uint8_t byte = 0;
      for (std::size_t reads = 0; reads < 4096; ++reads) {
        std::size_t n = 0;
        try {
          n = socket_.recv_some(&byte, 1);
        } catch (const Error&) {
          report.peer_closed = true;
          socket_.reset();
          return report;
        }
        if (n == 0) {
          report.peer_closed = true;
          return report;
        }
        report.bytes_received += n;
        if (rng_.below(8) == 0) stall_ms(1);
        // Stop after the 12-byte header plus a small body sample; the
        // real protocol conformance tests live in test_net.cpp.
        if (report.bytes_received >= 16) break;
      }
      break;
    }
    case ChaosMode::kSlowLoris: {
      // Dribble only a few header bytes with long pauses and never finish
      // the frame: the classic connection-slot squatter. The server's
      // idle sweep (or our own abandonment) ends it.
      const std::size_t dribble =
          std::min<std::size_t>(size, 1 + rng_.below(8));
      for (std::size_t i = 0; i < dribble; ++i) {
        if (!send_chunk(frame + i, 1, &report)) return report;
        stall_ms(2 + rng_.below(10));
      }
      // Abandon without closing; the destructor picks FIN or RST.
      break;
    }
  }
  return report;
}

}  // namespace plfoc
