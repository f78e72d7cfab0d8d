// The one writer behind every per-run artifact: the Chrome trace, the
// timeline, the metrics export, the post-mortem bundle and the bench CSV
// tables all encode JSON values and reach the disk through these helpers.
#pragma once

#include <string>
#include <string_view>

namespace obs {

/// Appends `s` as a quoted JSON string: '"' and '\\' are backslash-escaped,
/// other control characters become \u00XX.
void append_json_string(std::string& out, std::string_view s);

/// Appends `v` with %.17g, which round-trips doubles so identical runs
/// render byte-identically; a NaN or infinity, which JSON cannot carry,
/// becomes null.
void append_json_number(std::string& out, double v);

/// Writes `text` to `path`, replacing the file.  On failure prints
/// "obs: cannot open <what> file '<path>'" to stderr and returns false.
bool write_file(const std::string& path, std::string_view text,
                const char* what);

/// `path` for the first call with a given counter, then "<path>.1",
/// "<path>.2", ...: a process that runs several simulations keeps every
/// artifact.  Increments `count`.
std::string numbered_path(std::string path, int& count);

}  // namespace obs
