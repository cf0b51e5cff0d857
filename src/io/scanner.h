// Shared lexing layer of the .hcl family of formats: a single-pass line
// cursor with 1-based line numbers, comment/blank skipping, and strict
// token -> number conversions that fail with line-carrying HclErrors.
// Used by the document parsers in hcl.cpp, the manifest parser in
// service/batch.cpp and the sweep-spec parser in service/sweep.cpp, so
// the three cannot drift.
#pragma once

#include <string_view>
#include <vector>

#include "io/hcl.h"

namespace hcrf::io {

/// One non-blank, non-comment input line, split on spaces/tabs/CRs.
struct TokLine {
  int number = 0;  ///< 1-based line number in the source text.
  std::vector<std::string_view> toks;
};

/// Single-pass cursor over a document. Each step lexes the next line that
/// is neither blank nor a `#` comment (their numbers still count) into one
/// reused token buffer: a scan allocates that buffer and nothing per line.
/// Token views point into the source text, which must outlive the scanner.
/// The TokLine that Peek/Next return is overwritten by the next
/// Done/Peek/Next call: copy what must outlive it.
class Scanner {
 public:
  Scanner(std::string_view text, std::string_view file)
      : text_(text), file_(file) {
    line_.toks.reserve(32);  // the widest canonical line has 31 tokens
  }

  std::string_view file() const { return file_; }

  /// True once no line is left (lexes ahead to find out).
  bool Done() { return !pending_ && !Fill(); }
  /// The next line, not consumed. Requires !Done().
  const TokLine& Peek() {
    if (!pending_) Fill();
    return line_;
  }
  /// Consumes the next line. Requires !Done().
  const TokLine& Next() {
    if (!pending_) Fill();
    pending_ = false;
    return line_;
  }
  /// Line number to blame when input ends unexpectedly (call once Done()):
  /// the last token line of the document, or 1 when it has none.
  int LastLine() const { return last_; }

 private:
  /// Lexes the next token line into line_; false at end of input.
  bool Fill();

  std::string_view text_;
  std::string_view file_;
  std::size_t begin_ = 0;  ///< Offset of the first line not yet lexed.
  int number_ = 0;         ///< Number of the last line lexed (any kind).
  int last_ = 1;           ///< Number of the last token line lexed.
  bool pending_ = false;   ///< line_ holds a line not yet consumed.
  TokLine line_;
};

[[noreturn]] void Fail(std::string_view file, int line,
                       const std::string& message);

/// Strict conversions: the whole token must parse.
long ScanLong(const Scanner& sc, int line, std::string_view tok,
              std::string_view what);
int ScanInt(const Scanner& sc, int line, std::string_view tok,
            std::string_view what);
double ScanDouble(const Scanner& sc, int line, std::string_view tok,
                  std::string_view what);

/// Enforces the exact operand count of a directive line.
void WantToks(const Scanner& sc, const TokLine& tl, size_t n);

/// Checks and consumes the `hcl <version> <kind>` header line (version
/// must be kHclVersion); shared by every document parser, the manifest
/// parser and the sweep-spec parser.
void ExpectHeader(Scanner& sc, std::string_view kind);

}  // namespace hcrf::io
