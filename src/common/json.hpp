/**
 * @file
 * The one JSON module: string escaping, a streaming writer and a
 * recursive-descent parser.  Every machine-readable report the
 * simulator, its tools and its benches produce is laid out by
 * json::Writer, and every report they read back goes through
 * json::parse.
 *
 * obs::TraceSink is the one emitter that assembles its bytes by hand
 * (one Perfetto event per line, pinned by the determinism tests); it
 * still escapes through json::appendEscaped.
 */

#ifndef PARABIT_COMMON_JSON_HPP_
#define PARABIT_COMMON_JSON_HPP_

#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace parabit::json {

/**
 * Append @p s to @p out as JSON string content (no surrounding
 * quotes): `"` and `\` are backslash-escaped, newline and tab become
 * `\n` and `\t`, every other byte below 0x20 becomes `\u00xx`.  Bytes
 * from 0x20 up, multi-byte UTF-8 included, pass through unchanged.
 */
void appendEscaped(std::string &out, std::string_view s);

/** Write the document @p doc to @p path; on I/O failure log an error
 *  and return false. */
bool writeFile(const std::string &path, const std::string &doc);

/**
 * Streaming JSON writer that owns commas, nesting and indentation.
 *
 * One layout: object members sit one per line, indented two spaces
 * per level; array elements that are objects or arrays also sit one
 * per line, scalar array elements stay inline (`[1, 2, 3]`).  Doubles
 * print as a default-formatted std::ostream prints them (six
 * significant digits); a non-finite double, which JSON cannot spell,
 * prints as null.
 */
class Writer
{
  public:
    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    /** Start an object member; the next call writes its value. */
    Writer &key(std::string_view k);

    Writer &value(std::string_view s);

    /** bool, integers and floating point. */
    template <typename T>
        requires std::is_arithmetic_v<T>
    Writer &
    value(T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            scalar(v ? "true" : "false");
        else if constexpr (std::is_floating_point_v<T>)
            number(static_cast<double>(v));
        else
            scalar(std::to_string(v));
        return *this;
    }

    /** key(k) then value(v). */
    template <typename T>
    Writer &
    field(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** The finished document, newline-terminated. */
    std::string str() const;

  private:
    struct Frame
    {
        bool empty = true;      ///< no member/element written yet
        bool multiline = false; ///< close on its own line
    };

    /** Comma and line break before a member or element. */
    void separate(bool ownLine);
    Writer &open(char c);
    Writer &close(char c);
    void newline(std::size_t depth);
    void scalar(std::string_view text);
    void number(double v);

    std::string out_;
    std::vector<Frame> stack_;
    bool afterKey_ = false;
};

/**
 * Parsed JSON value.  Numbers keep their raw text, so consumers can
 * convert them exactly (integer nanoseconds, 64-bit seeds) instead of
 * going through a double.  Object members keep document order.
 */
struct Value
{
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    std::string text; ///< number raw text, or string content
    std::vector<Value> items;
    std::vector<std::pair<std::string, Value>> fields;

    /** First member named @p key, or nullptr (also for non-objects). */
    const Value *field(std::string_view key) const;
};

/**
 * Parse @p text as exactly one JSON document into @p out.  On failure
 * returns false and sets @p error to the reason and its byte offset,
 * e.g. "unterminated string (offset 12)".
 */
bool parse(const std::string &text, Value &out, std::string &error);

} // namespace parabit::json

#endif // PARABIT_COMMON_JSON_HPP_
