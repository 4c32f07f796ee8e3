#include "common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "common/check.hpp"

namespace ucr::json {

namespace {

[[noreturn]] void type_error(const char* want, Value::Type got) {
  static const char* names[] = {"null",   "bool",  "number",
                                "string", "array", "object"};
  throw ContractViolation(std::string("json: expected ") + want + ", got " +
                          names[static_cast<int>(got)]);
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Value::as_double() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  // from_chars reads the subnormals format_double_shortest writes (strtod
  // flags them ERANGE); overflow and underflow to zero stay errors.
  double value = 0.0;
  const char* end = text_.data() + text_.size();
  const auto [ptr, ec] = std::from_chars(text_.data(), end, value);
  UCR_REQUIRE(ptr == end && ec == std::errc(),
              "json: number '" + text_ + "' does not fit a double");
  return value;
}

std::uint64_t Value::as_u64() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  UCR_REQUIRE(!text_.empty() && text_[0] != '-' &&
                  text_.find_first_of(".eE") == std::string::npos,
              "json: number '" + text_ + "' is not an unsigned integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text_.c_str(), &end, 10);
  UCR_REQUIRE(end == text_.c_str() + text_.size() && errno != ERANGE,
              "json: number '" + text_ + "' does not fit a uint64");
  return static_cast<std::uint64_t>(value);
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return text_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return items_;
}

const std::string& Value::number_token() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return text_;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return members_;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* value = find(key);
  UCR_REQUIRE(value != nullptr, "json: missing key '" + key + "'");
  return *value;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    require(pos_ == text_.size(), "trailing characters after value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ContractViolation("json: " + message + " at offset " +
                            std::to_string(pos_));
  }

  void require(bool ok, const char* message) const {
    if (!ok) fail(message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  bool consume(char ch) {
    if (pos_ < text_.size() && text_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char ch) {
    if (!consume(ch)) {
      fail(std::string("expected '") + ch + "'");
    }
  }

  bool consume_word(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_whitespace();
    const char ch = peek();
    switch (ch) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
      case 'f':
      case 'n':
        return parse_word();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value value;
    value.type_ = Value::Type::kObject;
    skip_whitespace();
    if (consume('}')) return value;
    while (true) {
      skip_whitespace();
      Value key = parse_string();
      for (const auto& [name, _] : value.members_) {
        if (name == key.text_) fail("duplicate key '" + key.text_ + "'");
      }
      skip_whitespace();
      expect(':');
      value.members_.emplace_back(std::move(key.text_), parse_value());
      skip_whitespace();
      if (consume('}')) return value;
      expect(',');
    }
  }

  Value parse_array() {
    expect('[');
    Value value;
    value.type_ = Value::Type::kArray;
    skip_whitespace();
    if (consume(']')) return value;
    while (true) {
      value.items_.push_back(parse_value());
      skip_whitespace();
      if (consume(']')) return value;
      expect(',');
    }
  }

  Value parse_word() {
    Value value;
    if (consume_word("true")) {
      value.type_ = Value::Type::kBool;
      value.bool_ = true;
    } else if (consume_word("false")) {
      value.type_ = Value::Type::kBool;
      value.bool_ = false;
    } else if (consume_word("null")) {
      value.type_ = Value::Type::kNull;
    } else {
      fail("unexpected token");
    }
    return value;
  }

  Value parse_string() {
    expect('"');
    Value value;
    value.type_ = Value::Type::kString;
    std::string& out = value.text_;
    while (true) {
      require(pos_ < text_.size(), "unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return value;
      if (static_cast<unsigned char>(ch) < 0x20) {
        fail("raw control character in string");
      }
      if (ch != '\\') {
        out += ch;
        continue;
      }
      require(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          require(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              fail("malformed \\u escape");
            }
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported");
          }
          // UTF-8 encode the basic-plane codepoint.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    consume('-');
    require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
            "malformed number");
    if (!consume('0')) {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (consume('.')) {
      require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
              "malformed number (digits required after '.')");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
              "malformed number (digits required in exponent)");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    Value value;
    value.type_ = Value::Type::kNumber;
    value.text_ = text_.substr(start, pos_ - start);
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
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
        if (static_cast<unsigned char>(ch) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(ch >> 4) & 0xF];
          out += hex[ch & 0xF];
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace ucr::json
