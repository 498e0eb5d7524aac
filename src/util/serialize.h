// Model-format errors raised by the JSRM artifact loader.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace jsrev::ser {

class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// A model-loading failure localized to a named section of a JSRM artifact
/// (core::ModelView), carrying the exact byte offset in the mapped file.
/// Derives from FormatError so callers that only care about "malformed
/// model" keep working.
class ModelFormatError : public FormatError {
 public:
  ModelFormatError(std::string section, std::uint64_t offset,
                   const std::string& detail)
      : FormatError("model section '" + section + "' at byte " +
                    std::to_string(offset) + ": " + detail),
        section_(std::move(section)),
        offset_(offset) {}

  const std::string& section() const noexcept { return section_; }
  std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::string section_;
  std::uint64_t offset_;
};

}  // namespace jsrev::ser
