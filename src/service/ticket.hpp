/// \file ticket.hpp
/// \brief Async handle for a submitted service request, plus the typed
///        redemption outcome.
///
/// A `Ticket` is the whole client-side state: an opaque id minted by
/// `AcceleratorService::submit`.  Clients poll or wait on it; the service
/// drops its side of the bookkeeping when a wait resolves, so a ticket is
/// single-redemption.
///
/// `waitOutcome` / `waitOutcomeFor` return a `TicketOutcome` whose
/// `TicketStatus` encodes failure as data: a degraded-but-byte-identical
/// success and a hard failure deserve different handling, not different
/// control flow.  `AcceleratorService::run` is the blocking shorthand that
/// returns the bare `RequestResult` and throws on failure.
#pragma once

#include <cstdint>
#include <string>

#include "service/request.hpp"

namespace aimsc::service {

struct Ticket {
  std::uint64_t id = 0;

  bool valid() const { return id != 0; }
};

/// How a request's execution ended.
enum class TicketStatus : std::uint8_t {
  Ok = 0,        ///< clean execution on the request's own shards
  Degraded = 1,  ///< recovered onto stand-in shards; bytes still identical
  Failed = 2,    ///< execution failed; `error` says why, `result` is void
};

/// Typed redemption result (`waitOutcome`): status + error as data instead
/// of an exception, so all three endings flow through one return path.
struct TicketOutcome {
  TicketStatus status = TicketStatus::Ok;
  std::string error;     ///< set when status == Failed
  RequestResult result;  ///< meaningful unless status == Failed

  bool ok() const { return status != TicketStatus::Failed; }
};

}  // namespace aimsc::service
