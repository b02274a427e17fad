#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"

namespace parabit::json {

void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (u < 0x20) {
            out += "\\u00";
            out += kHex[u >> 4];
            out += kHex[u & 0xF];
        } else {
            out += c;
        }
    }
}

bool
writeFile(const std::string &path, const std::string &doc)
{
    std::ofstream out(path, std::ios::binary);
    out << doc;
    if (!out)
        logError("cannot write " + path);
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Writer

void
Writer::newline(std::size_t depth)
{
    out_ += '\n';
    out_.append(2 * depth, ' ');
}

void
Writer::separate(bool ownLine)
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (stack_.empty())
        return; // the document's root value
    Frame &f = stack_.back();
    if (!f.empty)
        out_ += ownLine ? "," : ", ";
    f.empty = false;
    if (ownLine) {
        f.multiline = true;
        newline(stack_.size());
    }
}

Writer &
Writer::open(char c)
{
    separate(true);
    out_ += c;
    stack_.emplace_back();
    return *this;
}

Writer &
Writer::close(char c)
{
    const bool multiline = stack_.back().multiline;
    stack_.pop_back();
    if (multiline)
        newline(stack_.size());
    out_ += c;
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    separate(true);
    out_ += '"';
    appendEscaped(out_, k);
    out_ += "\": ";
    afterKey_ = true;
    return *this;
}

void
Writer::scalar(std::string_view text)
{
    separate(false);
    out_ += text;
}

Writer &
Writer::value(std::string_view s)
{
    separate(false);
    out_ += '"';
    appendEscaped(out_, s);
    out_ += '"';
    return *this;
}

void
Writer::number(double v)
{
    std::ostringstream os;
    os << v;
    scalar(std::isfinite(v) ? os.str() : "null");
}

std::string
Writer::str() const
{
    return out_ + '\n';
}

// ---------------------------------------------------------------------
// Parser

const Value *
Value::field(std::string_view key) const
{
    for (const auto &f : fields)
        if (f.first == key)
            return &f.second;
    return nullptr;
}

namespace {

/** Recursive-descent parser over one JSON document. */
struct Parser
{
    const std::string &text;
    std::string &error;
    std::size_t pos = 0;

    bool
    document(Value &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        return pos == text.size() ||
               fail("trailing characters after document");
    }

    /** Record why and where parsing stopped; always false. */
    bool
    fail(const char *why)
    {
        error = std::string(why) + " (offset " + std::to_string(pos) + ")";
        return false;
    }

    bool at(char c) const { return pos < text.size() && text[pos] == c; }

    bool
    eat(char c)
    {
        if (!at(c))
            return false;
        ++pos;
        return true;
    }

    /** Advance past every character that is in @p set. */
    void
    skipAll(std::string_view set)
    {
        while (pos < text.size() && set.find(text[pos]) != set.npos)
            ++pos;
    }

    void skipWs() { skipAll(" \t\n\r"); }

    bool
    literal(Value &out, Value::Kind kind, std::string_view word)
    {
        out.kind = kind;
        out.boolean = word == "true";
        if (text.compare(pos, word.size(), word) != 0)
            return fail("unknown literal");
        pos += word.size();
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (pos >= text.size())
            return fail("unexpected end of document");
        switch (text[pos]) {
          case '{':
          case '[': return parseContainer(out);
          case '"':
            out.kind = Value::Kind::kString;
            return parseString(out.text);
          case 't': return literal(out, Value::Kind::kBool, "true");
          case 'f': return literal(out, Value::Kind::kBool, "false");
          case 'n': return literal(out, Value::Kind::kNull, "null");
          default: return parseNumber(out);
        }
    }

    /** An object or an array; the two differ only in the member key. */
    bool
    parseContainer(Value &out)
    {
        const bool object = text[pos++] == '{';
        out.kind = object ? Value::Kind::kObject : Value::Kind::kArray;
        const char close = object ? '}' : ']';
        skipWs();
        if (eat(close))
            return true;
        while (true) {
            skipWs();
            std::string key;
            if (object) {
                if (!at('"'))
                    return fail("expected object key");
                if (!parseString(key))
                    return false;
                skipWs();
                if (!eat(':'))
                    return fail("expected ':' after key");
                skipWs();
            }
            Value v;
            if (!parseValue(v))
                return false;
            if (object)
                out.fields.emplace_back(std::move(key), std::move(v));
            else
                out.items.push_back(std::move(v));
            skipWs();
            if (eat(','))
                continue;
            if (eat(close))
                return true;
            return fail(object ? "expected ',' or '}' in object"
                               : "expected ',' or ']' in array");
        }
    }

    /** `\uXXXX` at pos into @p out.  ASCII only: the escaper writes
     *  `\u` for control bytes alone and passes UTF-8 through raw. */
    bool
    parseUnicodeEscape(std::string &out)
    {
        unsigned cp = 0;
        const char *p = text.data() + pos + 2;
        if (pos + 6 > text.size() ||
            std::from_chars(p, p + 4, cp, 16).ptr != p + 4)
            return fail("bad \\u escape");
        if (cp >= 0x80)
            return fail("unsupported non-ASCII \\u escape");
        out += static_cast<char>(cp);
        pos += 6;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        static constexpr std::string_view kEscape = "\"\\/bfnrt";
        static constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
        ++pos; // '"'
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            if (pos + 1 >= text.size())
                return fail("truncated escape");
            const char e = text[pos + 1];
            if (e == 'u') {
                if (!parseUnicodeEscape(out))
                    return false;
                continue;
            }
            const std::size_t i = kEscape.find(e);
            if (i == std::string_view::npos)
                return fail("unsupported escape");
            out += kMeaning[i];
            pos += 2;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        out.kind = Value::Kind::kNumber;
        const std::size_t start = pos;
        skipAll("0123456789.eE+-");
        if (pos == start)
            return fail("expected a value");
        out.text = text.substr(start, pos - start);
        return true;
    }
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string &error)
{
    return Parser{text, error}.document(out);
}

} // namespace parabit::json
