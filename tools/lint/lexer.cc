#include "lint/lexer.hh"

#include <cctype>

namespace mcsim::lint
{

namespace
{

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Trim ASCII whitespace from both ends. */
std::string
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

/**
 * Parse `mcsim-lint: name(reason) [, name(reason)]...` annotations out
 * of a comment body. A marker with nothing parseable after it is kept
 * as a malformed entry so the audit can flag it instead of silently
 * ignoring a typoed suppression.
 */
void
parseSuppressions(std::string_view comment, unsigned line, LexedFile &out)
{
    static constexpr std::string_view marker = "mcsim-lint:";
    std::size_t at = comment.find(marker);
    if (at == std::string_view::npos)
        return;
    std::string_view rest = comment.substr(at + marker.size());

    bool parsedAny = false;
    std::size_t pos = 0;
    while (pos < rest.size()) {
        while (pos < rest.size() &&
               (std::isspace(static_cast<unsigned char>(rest[pos])) ||
                rest[pos] == ','))
            ++pos;
        std::size_t nameStart = pos;
        while (pos < rest.size() &&
               (identChar(rest[pos]) || rest[pos] == '-'))
            ++pos;
        if (pos == nameStart)
            break;
        Suppression s;
        s.check = std::string(rest.substr(nameStart, pos - nameStart));
        s.line = line;
        if (pos < rest.size() && rest[pos] == '(') {
            std::size_t close = rest.find(')', pos + 1);
            if (close == std::string_view::npos) {
                s.reason = trim(rest.substr(pos + 1));
                pos = rest.size();
            } else {
                s.reason = trim(rest.substr(pos + 1, close - pos - 1));
                pos = close + 1;
            }
        }
        out.suppressions[line].push_back(std::move(s));
        parsedAny = true;
    }
    if (!parsedAny) {
        Suppression s;
        s.line = line;
        s.malformed = true;
        out.suppressions[line].push_back(std::move(s));
    }
}

/** Multi-character punctuators lexed as single tokens. `>` is always a
 *  single token so template-argument depth counting stays simple. */
constexpr std::string_view multiPunct[] = {
    "->*", "<<=", "...", "::", "->", "<=", ">=", "==", "!=",
    "&&",  "||",  "<<",  "+=", "-=", "*=", "/=", "|=", "&=",
    "^=",  "%=",  "++",  "--",
};

} // namespace

LexedFile
lex(std::string path, std::string source)
{
    LexedFile out;
    out.path = std::move(path);
    out.source = std::move(source);
    const std::string &src = out.source;

    unsigned line = 1;
    bool inDirective = false;
    std::size_t i = 0;
    const std::size_t n = src.size();

    auto newline = [&](std::size_t at) {
        ++line;
        // A directive continues past a backslash-newline.
        if (inDirective && !(at >= 1 && src[at - 1] == '\\'))
            inDirective = false;
    };

    while (i < n) {
        const char c = src[i];

        if (c == '\n') {
            newline(i);
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }

        // Line comment (may carry a suppression annotation).
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t end = src.find('\n', i);
            if (end == std::string::npos)
                end = n;
            parseSuppressions(
                std::string_view(src).substr(i + 2, end - i - 2), line, out);
            i = end;
            continue;
        }

        // Block comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            std::size_t end = src.find("*/", i + 2);
            if (end == std::string::npos)
                end = n;
            else
                end += 2;
            parseSuppressions(
                std::string_view(src).substr(i + 2, end - i - 2), line, out);
            for (std::size_t k = i; k < end; ++k) {
                if (src[k] == '\n')
                    newline(k);
            }
            i = end;
            continue;
        }

        // Preprocessor directive start (only at logical line start; good
        // enough: a mid-line `#` is the stringize operator, macro-only).
        if (c == '#') {
            bool lineStart = true;
            for (std::size_t k = i; k-- > 0;) {
                if (src[k] == '\n')
                    break;
                if (!std::isspace(static_cast<unsigned char>(src[k]))) {
                    lineStart = false;
                    break;
                }
            }
            if (lineStart)
                inDirective = true;
            ++i;
            continue;
        }

        // Identifier (and possible raw-string prefix).
        if (identStart(c)) {
            std::size_t start = i;
            while (i < n && identChar(src[i]))
                ++i;
            std::string_view text =
                std::string_view(src).substr(start, i - start);
            // Raw string: R"delim( ... )delim" with optional encoding
            // prefix folded into the identifier (u8R, LR, ...).
            if (i < n && src[i] == '"' && text.size() >= 1 &&
                text.back() == 'R' &&
                (text == "R" || text == "LR" || text == "uR" ||
                 text == "UR" || text == "u8R")) {
                std::size_t dStart = i + 1;
                std::size_t paren = src.find('(', dStart);
                if (paren == std::string::npos) {
                    i = n;
                    continue;
                }
                // Built by append: GCC 12 at -O3 reports a false
                // -Wrestrict inside a literal-plus-string operator+.
                std::string closer = ")";
                closer.append(src, dStart, paren - dStart).append("\"");
                std::size_t end = src.find(closer, paren + 1);
                end = end == std::string::npos ? n : end + closer.size();
                out.tokens.push_back(
                    {Tok::String, std::string_view(), line, inDirective});
                for (std::size_t k = i; k < end; ++k) {
                    if (src[k] == '\n')
                        ++line;  // raw string: no continuation semantics
                }
                i = end;
                continue;
            }
            out.tokens.push_back({Tok::Ident, text, line, inDirective});
            continue;
        }

        // Number (incl. hex, digit separators, and suffixes).
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
            std::size_t start = i;
            ++i;
            while (i < n) {
                const char d = src[i];
                if (identChar(d) || d == '.' || d == '\'') {
                    ++i;
                    continue;
                }
                // Exponent signs: 1e-5, 0x1p+3.
                if ((d == '+' || d == '-') &&
                    (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                     src[i - 1] == 'p' || src[i - 1] == 'P')) {
                    ++i;
                    continue;
                }
                break;
            }
            out.tokens.push_back(
                {Tok::Number, std::string_view(src).substr(start, i - start),
                 line, inDirective});
            continue;
        }

        // String / char literal.
        if (c == '"' || c == '\'') {
            const char quote = c;
            std::size_t k = i + 1;
            while (k < n) {
                if (src[k] == '\\') {
                    k += 2;
                    continue;
                }
                if (src[k] == quote)
                    break;
                if (src[k] == '\n')
                    break;  // unterminated; tolerate
                ++k;
            }
            out.tokens.push_back({quote == '"' ? Tok::String : Tok::CharLit,
                                  std::string_view(), line, inDirective});
            i = k < n ? k + 1 : n;
            continue;
        }

        // Punctuation: longest multi-char unit first.
        std::string_view rest = std::string_view(src).substr(i);
        std::string_view matched;
        for (std::string_view p : multiPunct) {
            if (rest.substr(0, p.size()) == p) {
                matched = p;
                break;
            }
        }
        if (!matched.empty()) {
            out.tokens.push_back(
                {Tok::Punct, std::string_view(src).substr(i, matched.size()),
                 line, inDirective});
            i += matched.size();
        } else {
            out.tokens.push_back(
                {Tok::Punct, std::string_view(src).substr(i, 1), line,
                 inDirective});
            ++i;
        }
    }
    return out;
}

} // namespace mcsim::lint
