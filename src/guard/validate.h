// Semantic validation of traces, signatures and skeletons.
//
// The archive decoders (archive::codec) only check that input *parses*; a
// well-formed file can still describe a program that is impossible or would
// deadlock at replay: duplicate rank ids, negative computation gaps, peers
// outside the world, unmatched send/recv channels, zero-iteration loops.
// validate_* walks the parsed value and returns a structured
// ValidationReport listing every such issue with a location string, so the
// CLI can refuse bad input up front (--validate=strict) instead of failing
// mid-simulation with a confusing error.
#pragma once

#include <string>
#include <vector>

#include "sig/signature.h"
#include "skeleton/skeleton.h"
#include "trace/event.h"
#include "util/error.h"

namespace psk::guard {

/// One finding.  Errors make the subject unusable; warnings are suspicious
/// but simulable.
struct Issue {
  enum class Severity { kWarning, kError };

  Severity severity = Severity::kError;
  /// Location within the subject, e.g. "rank 3 event 17" or "channel 0->2".
  std::string where;
  std::string message;
};

struct ValidationReport {
  /// What was validated, e.g. "trace 'lu.A.8'" (used in renderings).
  std::string subject;
  std::vector<Issue> issues;
  /// Issues beyond the per-report cap are counted here, not stored.
  std::size_t suppressed = 0;

  bool ok() const;  // true when no issue has Severity::kError
  std::size_t error_count() const;
  std::size_t warning_count() const;

  /// Multi-line human-readable rendering (also the exception message).
  std::string render() const;
};

/// Thrown by require_valid for a report with errors.  Distinct from
/// FormatError (the input parsed fine; its *meaning* is broken) so the CLI
/// can map both to the validation exit code explicitly.
class ValidationError : public Error {
 public:
  explicit ValidationError(ValidationReport report);
  const ValidationReport& report() const { return report_; }

 private:
  ValidationReport report_;
};

ValidationReport validate_trace(const trace::Trace& trace);
ValidationReport validate_signature(const sig::Signature& signature);
ValidationReport validate_skeleton(const skeleton::Skeleton& skeleton);

/// Throws ValidationError when the report contains errors.
void require_valid(const ValidationReport& report);

}  // namespace psk::guard
