// Fault-injecting client socket for the serving-tier chaos suite.
//
// A ChaosSocket is a deliberately badly behaved client: it connects to a
// real server and then executes a seeded misbehaviour schedule drawn from
// one of three modes —
//
//   kMidFrameDisconnect  deliver a strict prefix of a frame, then close
//                        abortively (RST when the stack allows it), so the
//                        server sees a connection die inside a length-
//                        prefixed frame body;
//   kTrickle             deliver every byte, but one byte per send with
//                        millisecond stalls in between, and read responses
//                        just as slowly — the pathological-but-legal peer;
//   kSlowLoris           dribble a few header bytes with long stalls and
//                        never finish the frame, holding the connection
//                        slot open until dropped or abandoned.
//
// The schedule (cut position, stall lengths, dribble count) derives
// entirely from the seed via util/rng.hpp, so a failing trial reprints as
// `seed=<n> mode=<name>` and replays bit-identically. Expected peer
// failures (the server resetting or closing on us) are swallowed and
// reported through return values — a chaos client being dropped is a
// success, not an error.
//
// The abortive close needs SO_LINGER, a raw socket call; the plfoc-lint
// `raw-socket` rule covers only src/, so this test-only TU lives in tests/
// and is built into plfoc_chaos_tests alone. Everything else goes through
// the Socket primitives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/socket.hpp"
#include "util/rng.hpp"

namespace plfoc {

enum class ChaosMode {
  kMidFrameDisconnect,
  kTrickle,
  kSlowLoris,
};

/// All modes, for seed-sweep loops (trial t -> kAllChaosModes[t % 3]).
inline constexpr ChaosMode kAllChaosModes[] = {
    ChaosMode::kMidFrameDisconnect,
    ChaosMode::kTrickle,
    ChaosMode::kSlowLoris,
};

const char* chaos_mode_name(ChaosMode mode);

/// Outcome of one scripted chaos interaction, for per-trial assertions.
struct ChaosReport {
  std::size_t bytes_sent = 0;      ///< bytes actually handed to the kernel
  std::size_t bytes_received = 0;  ///< response bytes read back (kTrickle)
  bool peer_closed = false;  ///< the server closed/reset us mid-schedule
};

class ChaosSocket {
 public:
  /// Connect to the server; throws plfoc::Error when it is unreachable
  /// (a chaos client must start from a live connection).
  ChaosSocket(const std::string& host, std::uint16_t port,
              std::uint64_t seed, ChaosMode mode);
  ~ChaosSocket();  ///< closes abortively when the schedule says so

  ChaosSocket(const ChaosSocket&) = delete;
  ChaosSocket& operator=(const ChaosSocket&) = delete;

  std::uint64_t seed() const { return seed_; }
  ChaosMode mode() const { return mode_; }

  /// Execute the mode's script against `frame` (a fully encoded protocol
  /// frame, typically a SubmitRequest). Returns what actually happened;
  /// never throws for peer-inflicted failures.
  ChaosReport run(const std::uint8_t* frame, std::size_t size);

  /// Close abortively now: SO_LINGER(0) + close, turning the teardown
  /// into an RST instead of an orderly FIN where the stack permits.
  void abort_close();

  bool open() const { return socket_.valid(); }

 private:
  /// Send a chunk, swallowing broken-pipe/reset errors. Returns false
  /// (and marks the peer closed) when the connection died.
  bool send_chunk(const std::uint8_t* data, std::size_t size,
                  ChaosReport* report);

  Socket socket_;
  Rng rng_;
  std::uint64_t seed_ = 0;
  ChaosMode mode_ = ChaosMode::kTrickle;
};

}  // namespace plfoc
