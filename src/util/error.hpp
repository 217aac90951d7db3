// Typed error taxonomy for meshsearch.
//
// Every error the library throws on purpose derives from meshsearch::Error
// and carries structured context — which engine, which phase, which
// site/band, and (for fault-driven errors) the fault seed and occurrence —
// so a failure can be replayed from the error alone. The taxonomy:
//
//   * InvalidInputError  — malformed input rejected at a public entry point
//     (multisearch/validate.hpp) before any phase is charged. Caller bug.
//   * CapacityError      — structurally valid input that exceeds a declared
//     limit (batch larger than mesh capacity, degree above kMaxDegree).
//     Caller can split/shrink and retry.
//   * IntegrityError     — data failed an end-to-end check: a payload
//     checksum mismatch that survived the retransmit path, or a paranoid
//     shadow-oracle divergence. Simulator bug or unrecovered corruption;
//     never retryable by the caller.
//   * CheckFailedError   — an MS_CHECK internal invariant tripped. Always a
//     library bug.
//   * mesh::FaultExhaustedError (mesh/fault.hpp) — an injected-fault retry
//     budget ran out. Expected under armed fault plans; the stream
//     scheduler catches it and degrades/re-plans.
//
// Error derives from std::logic_error (not std::runtime_error) because the
// MS_CHECK contract predates this taxonomy: a large body of tests and
// callers pins `std::logic_error` as the thing the library throws, and the
// taxonomy must slot under it without breaking them. The subclasses are the
// real vocabulary; the std:: base is compatibility plumbing.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace meshsearch {

/// Structured context attached to every meshsearch::Error. Empty strings /
/// negative band / has_seed=false mean "not applicable" and are omitted
/// from the formatted what() text.
struct ErrorContext {
  std::string engine;  ///< e.g. "alg1-paper", "stream", "cycle"
  std::string phase;   ///< e.g. "phase.step2", "route", "paranoid-audit"
  std::string site;    ///< throw site: file:line, draw-site name, ...
  std::int64_t band = -1;            ///< band / submesh index, -1 = n/a
  std::uint64_t seed = 0;            ///< fault-plan seed (if has_seed)
  std::uint64_t occurrence = 0;      ///< per-site draw occurrence counter
  bool has_seed = false;             ///< seed/occurrence fields are live
};

namespace detail {

/// what() text = message + bracketed key=value context, so the full replay
/// coordinates survive even through a bare catch (std::exception&).
inline std::string format_error(const std::string& message,
                                const ErrorContext& ctx) {
  std::ostringstream os;
  os << message;
  bool open = false;
  const auto sep = [&]() -> const char* {
    if (open) return " ";
    open = true;
    return " [";
  };
  const auto field = [&](const char* key, const std::string& value) {
    if (!value.empty()) os << sep() << key << '=' << value;
  };
  field("engine", ctx.engine);
  field("phase", ctx.phase);
  field("site", ctx.site);
  if (ctx.band >= 0) os << sep() << "band=" << ctx.band;
  if (ctx.has_seed)
    os << sep() << "seed=" << ctx.seed << " occurrence=" << ctx.occurrence;
  if (open) os << ']';
  return os.str();
}

}  // namespace detail

/// Base of the taxonomy. Catch this to handle any deliberate meshsearch
/// failure; catch a subclass to handle one class of failure.
class Error : public std::logic_error {
 public:
  explicit Error(const std::string& message, ErrorContext ctx = {})
      : std::logic_error(detail::format_error(message, ctx)),
        message_(message),
        ctx_(std::move(ctx)) {}

  /// The raw message without the bracketed context suffix.
  const std::string& message() const noexcept { return message_; }
  const ErrorContext& context() const noexcept { return ctx_; }

 private:
  std::string message_;
  ErrorContext ctx_;
};

/// Malformed input rejected at a public entry point, before any phase is
/// charged (multisearch/validate.hpp).
class InvalidInputError : public Error {
 public:
  using Error::Error;
};

/// Structurally valid input exceeding a declared limit; split or shrink
/// and retry.
class CapacityError : public Error {
 public:
  using Error::Error;
};

/// Data failed an end-to-end integrity check (payload checksum survived the
/// retransmit path wrong, or the paranoid shadow oracle diverged).
class IntegrityError : public Error {
 public:
  using Error::Error;
};

/// An MS_CHECK internal invariant tripped — always a library bug.
class CheckFailedError : public Error {
 public:
  using Error::Error;
};

/// A query was shed by the overload-protection layer: its virtual queue
/// wait exceeded its tenant's SloPolicy deadline, so it was dropped BEFORE
/// dispatch instead of being served late (src/service/). A shed query is a
/// reported outcome, never a silent drop: its ticket resolves to kShed,
/// the completion callback fires with shed=true, and result() throws this
/// error. Carries the tenant, the engine's dataset, the admission clock and
/// the deadline so the shed decision can be reconstructed from the error
/// alone (shed happens exactly when shed_steps - admitted_steps > deadline).
class DeadlineExceededError : public Error {
 public:
  DeadlineExceededError(std::string tenant, std::string dataset,
                        double admitted_steps, double deadline_steps,
                        double shed_steps, ErrorContext ctx = {})
      : Error(
            [&] {
              std::ostringstream os;
              os << "query shed: tenant '" << tenant << "' on dataset '"
                 << dataset << "' waited "
                 << (shed_steps - admitted_steps)
                 << " virtual steps (admitted at " << admitted_steps
                 << ", shed at " << shed_steps << ") past its deadline of "
                 << deadline_steps << " steps";
              return os.str();
            }(),
            std::move(ctx)),
        tenant_(std::move(tenant)),
        dataset_(std::move(dataset)),
        admitted_steps_(admitted_steps),
        deadline_steps_(deadline_steps),
        shed_steps_(shed_steps) {}

  const std::string& tenant() const noexcept { return tenant_; }
  const std::string& dataset() const noexcept { return dataset_; }
  double admitted_steps() const noexcept { return admitted_steps_; }
  double deadline_steps() const noexcept { return deadline_steps_; }
  double shed_steps() const noexcept { return shed_steps_; }

 private:
  std::string tenant_;
  std::string dataset_;
  double admitted_steps_ = 0;
  double deadline_steps_ = 0;
  double shed_steps_ = 0;
};

/// A submit was refused by per-tenant backpressure: the tenant's pending
/// queue is at its SloPolicy::max_queue watermark, so admitting more would
/// only grow a queue whose tail is doomed to shed anyway. A CapacityError
/// (the caller can retry later) extended with a structured retry-after
/// hint in VIRTUAL steps, derived from the tenant's deficit-round-robin
/// round estimate — an estimate, not a guarantee, but a deterministic one.
class BackpressureError : public CapacityError {
 public:
  BackpressureError(const std::string& message, double retry_after_steps,
                    std::size_t queued, std::size_t max_queue,
                    ErrorContext ctx = {})
      : CapacityError(
            [&] {
              std::ostringstream os;
              os << message << " (queued " << queued << " of max " << max_queue
                 << ", retry after ~" << retry_after_steps
                 << " virtual steps)";
              return os.str();
            }(),
            std::move(ctx)),
        retry_after_steps_(retry_after_steps),
        queued_(queued),
        max_queue_(max_queue) {}

  double retry_after_steps() const noexcept { return retry_after_steps_; }
  std::size_t queued() const noexcept { return queued_; }
  std::size_t max_queue() const noexcept { return max_queue_; }

 private:
  double retry_after_steps_ = 0;
  std::size_t queued_ = 0;
  std::size_t max_queue_ = 0;
};

/// A warm engine was asked to serve against a structure that has been
/// mutated since the engine was prepared (or refreshed). An IntegrityError
/// — serving would return answers for a dataset that no longer exists —
/// but a *recoverable* one: call refresh() on the engine (or rebuild it)
/// and retry. Carries the dataset name and both generation stamps so the
/// divergence is diagnosable from the error alone.
class StaleEngineError : public IntegrityError {
 public:
  StaleEngineError(std::string dataset, std::uint64_t structure_generation,
                   std::uint64_t prepared_generation, ErrorContext ctx = {})
      : IntegrityError(
            [&] {
              std::ostringstream os;
              os << "stale warm engine for dataset '" << dataset
                 << "': structure at generation " << structure_generation
                 << ", engine prepared at generation " << prepared_generation
                 << " (refresh the engine before serving)";
              return os.str();
            }(),
            std::move(ctx)),
        dataset_(std::move(dataset)),
        structure_generation_(structure_generation),
        prepared_generation_(prepared_generation) {}

  const std::string& dataset() const noexcept { return dataset_; }
  std::uint64_t structure_generation() const noexcept {
    return structure_generation_;
  }
  std::uint64_t prepared_generation() const noexcept {
    return prepared_generation_;
  }

 private:
  std::string dataset_;
  std::uint64_t structure_generation_ = 0;
  std::uint64_t prepared_generation_ = 0;
};

}  // namespace meshsearch
