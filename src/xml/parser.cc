#include "src/xml/parser.h"

#include <string>
#include <vector>

#include "src/common/str_util.h"

namespace xpe::xml {

namespace {

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || static_cast<unsigned char>(c) >= 0x80;
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

/// Encodes a Unicode scalar value as UTF-8 (for character references).
void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

class XmlParser {
 public:
  XmlParser(std::string_view input, const ParseOptions& options)
      : input_(input),
        options_(options),
        builder_(options.id_attribute_name) {}

  StatusOr<Document> Run() {
    XPE_RETURN_IF_ERROR(ParseProlog());
    if (AtEnd() || Peek() != '<') {
      return Error("expected document element");
    }
    XPE_RETURN_IF_ERROR(ParseElement());
    XPE_RETURN_IF_ERROR(ParseMiscTail());
    return std::move(builder_).Finish();
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }
  bool LookingAt(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void AdvanceBy(size_t n) {
    for (size_t i = 0; i < n; ++i) Advance();
  }

  Status Error(std::string msg) const {
    return Status::ParseError(std::move(msg), line_, column_);
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsXmlWhitespaceChar(Peek())) Advance();
  }

  StatusOr<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return StatusOr<std::string_view>(Error("expected a name"));
    }
    size_t begin = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return input_.substr(begin, pos_ - begin);
  }

  /// Parses &name; / &#d; / &#xh; after the '&' has been seen.
  Status ParseReference(std::string* out) {
    Advance();  // '&'
    if (!AtEnd() && Peek() == '#') {
      Advance();
      uint32_t cp = 0;
      bool any = false;
      if (!AtEnd() && (Peek() == 'x' || Peek() == 'X')) {
        Advance();
        while (!AtEnd() && isxdigit(static_cast<unsigned char>(Peek()))) {
          char c = Peek();
          uint32_t digit = c <= '9'   ? static_cast<uint32_t>(c - '0')
                           : c <= 'F' ? static_cast<uint32_t>(c - 'A' + 10)
                                      : static_cast<uint32_t>(c - 'a' + 10);
          cp = cp * 16 + digit;
          if (cp > 0x10FFFF) return Error("character reference out of range");
          any = true;
          Advance();
        }
      } else {
        while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
          cp = cp * 10 + static_cast<uint32_t>(Peek() - '0');
          if (cp > 0x10FFFF) return Error("character reference out of range");
          any = true;
          Advance();
        }
      }
      if (!any || AtEnd() || Peek() != ';') {
        return Error("malformed character reference");
      }
      Advance();  // ';'
      if (cp == 0) return Error("character reference to NUL");
      AppendUtf8(cp, out);
      return Status::OK();
    }
    XPE_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    if (AtEnd() || Peek() != ';') return Error("malformed entity reference");
    Advance();  // ';'
    if (name == "lt") {
      out->push_back('<');
    } else if (name == "gt") {
      out->push_back('>');
    } else if (name == "amp") {
      out->push_back('&');
    } else if (name == "apos") {
      out->push_back('\'');
    } else if (name == "quot") {
      out->push_back('"');
    } else {
      return Error("unknown entity '&" + std::string(name) + ";'");
    }
    return Status::OK();
  }

  Status ParseAttributeValue(std::string* out) {
    if (AtEnd()) return Error("unterminated attribute value");
    char quote = Peek();
    if (quote != '"' && quote != '\'') {
      return Error("attribute value must be quoted");
    }
    Advance();
    while (!AtEnd() && Peek() != quote) {
      char c = Peek();
      if (c == '<') return Error("'<' in attribute value");
      if (c == '&') {
        XPE_RETURN_IF_ERROR(ParseReference(out));
      } else {
        // Attribute-value normalization: whitespace becomes a space.
        out->push_back(IsXmlWhitespaceChar(c) ? ' ' : c);
        Advance();
      }
    }
    if (AtEnd()) return Error("unterminated attribute value");
    Advance();  // closing quote
    return Status::OK();
  }

  Status ParseComment() {
    AdvanceBy(4);  // "<!--"
    size_t begin = pos_;
    while (!AtEnd() && !LookingAt("--")) Advance();
    if (AtEnd()) return Error("unterminated comment");
    std::string_view text = input_.substr(begin, pos_ - begin);
    if (!LookingAt("-->")) return Error("'--' not allowed inside a comment");
    AdvanceBy(3);
    builder_.AddComment(text);
    return Status::OK();
  }

  Status ParseProcessingInstruction() {
    AdvanceBy(2);  // "<?"
    XPE_ASSIGN_OR_RETURN(std::string_view target, ParseName());
    if (target == "xml" || target == "XML") {
      return Error("'<?xml' is only allowed as the document prolog");
    }
    SkipWhitespace();
    size_t begin = pos_;
    while (!AtEnd() && !LookingAt("?>")) Advance();
    if (AtEnd()) return Error("unterminated processing instruction");
    std::string_view content = input_.substr(begin, pos_ - begin);
    AdvanceBy(2);
    builder_.AddProcessingInstruction(target, content);
    return Status::OK();
  }

  Status ParseCData() {
    AdvanceBy(9);  // "<![CDATA["
    size_t begin = pos_;
    while (!AtEnd() && !LookingAt("]]>")) Advance();
    if (AtEnd()) return Error("unterminated CDATA section");
    builder_.AddText(input_.substr(begin, pos_ - begin));
    AdvanceBy(3);
    return Status::OK();
  }

  /// Skips a DOCTYPE declaration, including any internal subset.
  Status SkipDoctype() {
    AdvanceBy(9);  // "<!DOCTYPE"
    int bracket_depth = 0;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '[') {
        ++bracket_depth;
      } else if (c == ']') {
        --bracket_depth;
        if (bracket_depth < 0) return Error("unbalanced ']' in DOCTYPE");
      } else if (c == '>' && bracket_depth == 0) {
        Advance();
        return Status::OK();
      } else if (c == '"' || c == '\'') {
        char quote = c;
        Advance();
        while (!AtEnd() && Peek() != quote) Advance();
        if (AtEnd()) return Error("unterminated literal in DOCTYPE");
      }
      Advance();
    }
    return Error("unterminated DOCTYPE");
  }

  Status ParseProlog() {
    if (LookingAt("<?xml") &&
        (IsXmlWhitespaceChar(PeekAt(5)) || PeekAt(5) == '?')) {
      while (!AtEnd() && !LookingAt("?>")) Advance();
      if (AtEnd()) return Error("unterminated XML declaration");
      AdvanceBy(2);
    }
    bool seen_doctype = false;
    while (true) {
      SkipWhitespace();
      if (LookingAt("<!--")) {
        XPE_RETURN_IF_ERROR(ParseComment());
      } else if (LookingAt("<!DOCTYPE")) {
        if (seen_doctype) return Error("multiple DOCTYPE declarations");
        seen_doctype = true;
        XPE_RETURN_IF_ERROR(SkipDoctype());
      } else if (LookingAt("<?")) {
        XPE_RETURN_IF_ERROR(ParseProcessingInstruction());
      } else {
        return Status::OK();
      }
    }
  }

  /// Comments and PIs after the document element.
  Status ParseMiscTail() {
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Status::OK();
      if (LookingAt("<!--")) {
        XPE_RETURN_IF_ERROR(ParseComment());
      } else if (LookingAt("<?")) {
        XPE_RETURN_IF_ERROR(ParseProcessingInstruction());
      } else {
        return Error("content after the document element");
      }
    }
  }

  Status ParseElement() {
    if (++depth_ > options_.max_depth) {
      return Status::ResourceExhausted(
          "document nesting exceeds max_depth (" +
          std::to_string(options_.max_depth) + ")");
    }
    Advance();  // '<'
    XPE_ASSIGN_OR_RETURN(std::string_view tag, ParseName());
    builder_.StartElement(tag);
    if (builder_.node_count() > options_.max_nodes) {
      return Status::ResourceExhausted("document exceeds max_nodes");
    }

    // Attributes.
    std::vector<std::string_view> seen_names;
    while (true) {
      bool had_space = !AtEnd() && IsXmlWhitespaceChar(Peek());
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || LookingAt("/>")) break;
      if (!had_space) return Error("expected whitespace before attribute");
      XPE_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      for (std::string_view seen : seen_names) {
        if (seen == attr_name) {
          return Error("duplicate attribute '" + std::string(attr_name) + "'");
        }
      }
      seen_names.push_back(attr_name);
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '=' after attribute name");
      Advance();
      SkipWhitespace();
      std::string value;
      XPE_RETURN_IF_ERROR(ParseAttributeValue(&value));
      builder_.AddAttribute(attr_name, value);
    }

    if (LookingAt("/>")) {
      AdvanceBy(2);
      builder_.EndElement();
      --depth_;
      return Status::OK();
    }
    Advance();  // '>'

    XPE_RETURN_IF_ERROR(ParseContent());

    // "</" has been consumed by ParseContent.
    XPE_ASSIGN_OR_RETURN(std::string_view close_tag, ParseName());
    if (close_tag != tag) {
      return Error("mismatched end tag: expected </" + std::string(tag) +
                   ">, found </" + std::string(close_tag) + ">");
    }
    SkipWhitespace();
    if (AtEnd() || Peek() != '>') return Error("malformed end tag");
    Advance();
    builder_.EndElement();
    --depth_;
    return Status::OK();
  }

  /// Parses element content up to (and including) the opening "</" of the
  /// element's end tag.
  Status ParseContent() {
    std::string text;
    auto flush_text = [&] {
      if (text.empty()) return;
      if (options_.whitespace == WhitespaceMode::kDiscard) {
        bool all_ws = true;
        for (char c : text) {
          if (!IsXmlWhitespaceChar(c)) {
            all_ws = false;
            break;
          }
        }
        if (all_ws) {
          text.clear();
          return;
        }
      }
      builder_.AddText(text);
      text.clear();
    };

    while (true) {
      if (AtEnd()) return Error("unterminated element content");
      char c = Peek();
      if (c == '<') {
        if (LookingAt("</")) {
          flush_text();
          AdvanceBy(2);
          return Status::OK();
        }
        if (LookingAt("<!--")) {
          flush_text();
          XPE_RETURN_IF_ERROR(ParseComment());
        } else if (LookingAt("<![CDATA[")) {
          // CDATA joins surrounding text: flush through the builder, which
          // coalesces adjacent text nodes.
          flush_text();
          XPE_RETURN_IF_ERROR(ParseCData());
        } else if (LookingAt("<?")) {
          flush_text();
          XPE_RETURN_IF_ERROR(ParseProcessingInstruction());
        } else {
          flush_text();
          XPE_RETURN_IF_ERROR(ParseElement());
        }
      } else if (c == '&') {
        XPE_RETURN_IF_ERROR(ParseReference(&text));
      } else if (LookingAt("]]>")) {
        return Error("']]>' not allowed in content");
      } else {
        text.push_back(c);
        Advance();
      }
    }
  }

  std::string_view input_;
  const ParseOptions& options_;
  DocumentBuilder builder_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;
};

}  // namespace

StatusOr<Document> Parse(std::string_view input, const ParseOptions& options) {
  // Skip a UTF-8 BOM if present.
  if (input.substr(0, 3) == "\xEF\xBB\xBF") input.remove_prefix(3);
  XmlParser parser(input, options);
  return parser.Run();
}

}  // namespace xpe::xml
