#include "nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/check.hpp"

namespace fallsense::nn {

namespace {

constexpr char k_magic[4] = {'F', 'S', 'N', 'N'};
constexpr std::uint32_t k_version = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
    T value{};
    in.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!in) {
        throw serialize_error(serialize_error_kind::truncated, "weight stream truncated");
    }
    return value;
}

}  // namespace

void save_weights(model& m, std::ostream& out) {
    out.write(k_magic, sizeof(k_magic));
    write_pod(out, k_version);
    const std::vector<parameter*> params = m.parameters();
    write_pod(out, static_cast<std::uint64_t>(params.size()));
    for (const parameter* p : params) {
        write_pod(out, static_cast<std::uint32_t>(p->name.size()));
        out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
        write_pod(out, static_cast<std::uint32_t>(p->value.rank()));
        for (const std::size_t d : p->value.shape()) {
            write_pod(out, static_cast<std::uint64_t>(d));
        }
        out.write(reinterpret_cast<const char*>(p->value.data()),
                  static_cast<std::streamsize>(p->value.size() * sizeof(float)));
    }
    if (!out) {
        throw serialize_error(serialize_error_kind::io, "weight stream write failure");
    }
}

void load_weights(model& m, std::istream& in) {
    // The magic + version header is exactly as wide as the version-0
    // layout's leading u64 param_count, so one 8-byte read disambiguates:
    // "FSNN" means a versioned stream, anything else is read as the
    // historical headerless layout's count.
    char header[8];
    in.read(header, sizeof(header));
    if (!in) {
        throw serialize_error(serialize_error_kind::truncated,
                              "weight stream shorter than its header");
    }
    std::uint64_t count = 0;
    if (std::memcmp(header, k_magic, sizeof(k_magic)) == 0) {
        std::uint32_t version = 0;
        std::memcpy(&version, header + sizeof(k_magic), sizeof(version));
        if (version != k_version) {
            throw serialize_error(serialize_error_kind::bad_version,
                                  "unsupported weight stream version " +
                                      std::to_string(version));
        }
        count = read_pod<std::uint64_t>(in);
    } else {
        std::memcpy(&count, header, sizeof(count));
    }
    const std::vector<parameter*> params = m.parameters();
    if (count != params.size()) {
        throw serialize_error(serialize_error_kind::mismatch,
                              "weight stream parameter count mismatch: stream has " +
                                  std::to_string(count) + ", model has " +
                                  std::to_string(params.size()));
    }
    for (parameter* p : params) {
        // Lengths are checked against the model before anything is sized
        // from them, so a corrupt u32 cannot request a 4 GiB buffer.
        const auto name_len = read_pod<std::uint32_t>(in);
        if (name_len != p->name.size()) {
            throw serialize_error(serialize_error_kind::mismatch,
                                  "weight stream parameter mismatch: expected '" + p->name +
                                      "', found a " + std::to_string(name_len) +
                                      "-byte name");
        }
        std::string name(name_len, '\0');
        in.read(name.data(), name_len);
        if (!in) {
            throw serialize_error(serialize_error_kind::truncated,
                                  "weight stream truncated in name");
        }
        if (name != p->name) {
            throw serialize_error(serialize_error_kind::mismatch,
                                  "weight stream parameter mismatch: expected '" + p->name +
                                      "', found '" + name + "'");
        }
        const auto rank = read_pod<std::uint32_t>(in);
        if (rank != p->value.rank()) {
            throw serialize_error(serialize_error_kind::mismatch,
                                  "weight stream rank mismatch for '" + name + "': stream " +
                                      std::to_string(rank) + ", model " +
                                      std::to_string(p->value.rank()));
        }
        shape_t shape(rank);
        for (auto& d : shape) d = static_cast<std::size_t>(read_pod<std::uint64_t>(in));
        if (shape != p->value.shape()) {
            throw serialize_error(serialize_error_kind::mismatch,
                                  "weight stream shape mismatch for '" + name + "': stream " +
                                      shape_to_string(shape) + ", model " +
                                      shape_to_string(p->value.shape()));
        }
        in.read(reinterpret_cast<char*>(p->value.data()),
                static_cast<std::streamsize>(p->value.size() * sizeof(float)));
        if (!in) {
            throw serialize_error(serialize_error_kind::truncated,
                                  "weight stream truncated in data for '" + name + "'");
        }
        if (!std::all_of(p->value.data(), p->value.data() + p->value.size(),
                         [](float v) { return std::isfinite(v); })) {
            throw serialize_error(serialize_error_kind::bad_value,
                                  "weight stream has a NaN or infinite value in '" + name + "'");
        }
    }
}

void save_weights_file(model& m, const std::filesystem::path& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw serialize_error(serialize_error_kind::io,
                              "cannot open for write: " + path.string());
    }
    save_weights(m, out);
}

void load_weights_file(model& m, const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw serialize_error(serialize_error_kind::io,
                              "cannot open for read: " + path.string());
    }
    load_weights(m, in);
}

}  // namespace fallsense::nn
