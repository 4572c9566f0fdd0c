/**
 * @file
 * Minimal JSON support: a streaming writer used by the trace exporter,
 * the run-report builder and the benchmark JSON emitters, plus a small
 * recursive-descent parser used by trace validation and the tests.
 *
 * Deliberately tiny — no external dependency, no DOM mutation API. The
 * parser accepts strict JSON (objects, arrays, strings with the common
 * escapes, numbers, booleans, null) and is sufficient for files this
 * repository itself produces.
 */

#ifndef EL_SUPPORT_JSON_HH
#define EL_SUPPORT_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/strfmt.hh"

namespace el::json
{

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
inline std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/** Render a double without trailing noise ("12" rather than "12.000000"). */
inline std::string
number(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v > -1e15 && v < 1e15)
        return strfmt("%lld", static_cast<long long>(v));
    return strfmt("%.17g", v);
}

/**
 * Streaming writer with explicit begin/end scopes. Keys are only legal
 * inside objects; values only where a value is expected. The writer
 * inserts commas automatically.
 */
class Writer
{
  public:
    Writer() { stack_.push_back(Scope::Value); }

    void beginObject() { value("{"); push(Scope::Object); }
    void endObject() { stack_.pop_back(); out_ += "}"; }
    void beginArray() { value("["); push(Scope::Array); }
    void endArray() { stack_.pop_back(); out_ += "]"; }

    /** Start a key inside the current object. */
    void
    key(const std::string &k)
    {
        comma();
        out_ += "\"" + escape(k) + "\":";
        pending_value_ = true;
    }

    void str(const std::string &v) { value("\"" + escape(v) + "\""); }
    void num(double v) { value(number(v)); }
    void num(uint64_t v) { value(strfmt("%llu", (unsigned long long)v)); }
    void num(int64_t v) { value(strfmt("%lld", (long long)v)); }
    void num(int v) { num(static_cast<int64_t>(v)); }
    void num(unsigned v) { num(static_cast<uint64_t>(v)); }
    void boolean(bool v) { value(v ? "true" : "false"); }
    void null() { value("null"); }

    // Convenience: key + scalar in one call.
    void kv(const std::string &k, const std::string &v) { key(k); str(v); }
    void kv(const std::string &k, const char *v) { key(k); str(v); }
    void kv(const std::string &k, double v) { key(k); num(v); }
    void kv(const std::string &k, uint64_t v) { key(k); num(v); }
    void kv(const std::string &k, int64_t v) { key(k); num(v); }
    void kv(const std::string &k, int v) { key(k); num(v); }
    void kv(const std::string &k, unsigned v) { key(k); num(v); }
    void kv(const std::string &k, bool v) { key(k); boolean(v); }

    const std::string &str() const { return out_; }

  private:
    enum class Scope { Value, Object, Array };

    /** Enter a scope, resetting the element count at its depth (a
     *  previous sibling scope at the same depth left its own count). */
    void
    push(Scope s)
    {
        stack_.push_back(s);
        if (count_.size() < stack_.size())
            count_.resize(stack_.size(), 0);
        count_[stack_.size() - 1] = 0;
    }

    void
    comma()
    {
        if (count_.size() < stack_.size())
            count_.resize(stack_.size(), 0);
        if (count_[stack_.size() - 1]++ > 0)
            out_ += ",";
    }

    void
    value(const std::string &text)
    {
        if (stack_.back() == Scope::Array)
            comma();
        pending_value_ = false;
        out_ += text;
    }

    std::vector<Scope> stack_;
    std::vector<uint32_t> count_;
    bool pending_value_ = false;
    std::string out_;
};

// ----- parser -----------------------------------------------------------

/** A parsed JSON value (tree-owned). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Value> arr;
    std::map<std::string, Value> obj;

    bool operator==(const Value &) const = default;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object member lookup; null when absent or not an object. */
    const Value *
    find(const std::string &k) const
    {
        if (kind != Kind::Object)
            return nullptr;
        auto it = obj.find(k);
        return it == obj.end() ? nullptr : &it->second;
    }

    /** Member @p k as a number, or @p fallback when absent/mistyped. */
    double
    numberOr(const std::string &k, double fallback) const
    {
        const Value *v = find(k);
        return v && v->isNumber() ? v->num : fallback;
    }

    /** Member @p k as a string, or @p fallback when absent/mistyped. */
    std::string
    strOr(const std::string &k, const std::string &fallback) const
    {
        const Value *v = find(k);
        return v && v->isString() ? v->str : fallback;
    }
};

/** Strict parser; returns false (with @p error) on malformed input. */
class Parser
{
  public:
    static bool
    parse(const std::string &text, Value *out, std::string *error)
    {
        Parser p(text);
        if (!p.parseValue(out)) {
            if (error)
                *error = p.error_;
            return false;
        }
        p.skipWs();
        if (p.pos_ != text.size()) {
            if (error)
                *error = strfmt("trailing garbage at offset %zu", p.pos_);
            return false;
        }
        return true;
    }

  private:
    explicit Parser(const std::string &text) : text_(text) {}

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    fail(const std::string &why)
    {
        error_ = strfmt("%s at offset %zu", why.c_str(), pos_);
        return false;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail("bad literal");
        pos_ += len;
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("truncated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': *out += '"'; break;
              case '\\': *out += '\\'; break;
              case '/': *out += '/'; break;
              case 'n': *out += '\n'; break;
              case 'r': *out += '\r'; break;
              case 't': *out += '\t'; break;
              case 'b': *out += '\b'; break;
              case 'f': *out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // ASCII-only decode (sufficient for our own files).
                *out += static_cast<char>(code & 0x7f);
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    bool
    parseValue(Value *out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out->kind = Value::Kind::Object;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                Value v;
                if (!parseValue(&v))
                    return false;
                out->obj.emplace(std::move(key), std::move(v));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos_;
            out->kind = Value::Kind::Array;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                Value v;
                if (!parseValue(&v))
                    return false;
                out->arr.push_back(std::move(v));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out->kind = Value::Kind::String;
            return parseString(&out->str);
        }
        if (c == 't') {
            out->kind = Value::Kind::Bool;
            out->b = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out->kind = Value::Kind::Bool;
            out->b = false;
            return literal("false", 5);
        }
        if (c == 'n') {
            out->kind = Value::Kind::Null;
            return literal("null", 4);
        }
        // Number.
        size_t start = pos_;
        if (c == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::string("0123456789.eE+-").find(text_[pos_]) !=
                std::string::npos))
            ++pos_;
        if (pos_ == start)
            return fail("expected value");
        try {
            out->num = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            return fail("bad number");
        }
        out->kind = Value::Kind::Number;
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
    std::string error_;
};

} // namespace el::json

#endif // EL_SUPPORT_JSON_HH
