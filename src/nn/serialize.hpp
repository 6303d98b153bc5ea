// Model weight serialization.
//
// Format (little-endian, versioned):
//   magic "FSNN" | u32 version | u64 param_count |
//   per param: u32 name_len | name bytes | u32 rank | u64 dims[rank] |
//              f32 data[volume]
//
// Architecture is NOT stored: weights are loaded back into a model built by
// the same builder (model_zoo in src/core).  Name + shape of every parameter
// are checked on load, so loading into a mismatched architecture fails
// loudly instead of silently corrupting weights.
//
// Failures throw `serialize_error`, typed by what went wrong (a future
// version, a truncated stream, a model mismatch, a non-finite value, plain
// I/O) so callers can distinguish "wrong file" from "wrong build" without
// string-matching.  Every length the stream declares (name bytes, rank) is
// compared with the model before anything is allocated from it, so a
// corrupt file fails as `mismatch` instead of requesting a huge buffer.
// A NaN or infinite parameter value fails as `bad_value`: such a model
// would score every window NaN, and `NaN >= threshold` never triggers.
// After a failed load the model's parameters are unspecified.
// Loading still accepts the historical version-0 layout — the same stream
// without the magic/version header (it started directly at param_count);
// files that predate the header keep loading.  Saving always writes the
// current versioned header.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "nn/layer.hpp"

namespace fallsense::nn {

enum class serialize_error_kind {
    bad_version,  ///< versioned header with a version this build doesn't speak
    truncated,    ///< stream ended inside a header, name, shape, or data block
    mismatch,     ///< parameter count/name/shape differs from the model's
    bad_value,    ///< a parameter value is NaN or infinite
    io,           ///< open/write failure
};

class serialize_error : public std::runtime_error {
public:
    serialize_error(serialize_error_kind kind, const std::string& what)
        : std::runtime_error(what), kind_(kind) {}
    serialize_error_kind kind() const { return kind_; }

private:
    serialize_error_kind kind_;
};

void save_weights(model& m, std::ostream& out);
void load_weights(model& m, std::istream& in);

void save_weights_file(model& m, const std::filesystem::path& path);
void load_weights_file(model& m, const std::filesystem::path& path);

}  // namespace fallsense::nn
