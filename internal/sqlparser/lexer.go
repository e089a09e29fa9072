// Package sqlparser implements a hand-written lexer and recursive-descent
// parser for the SQL fragment the paper targets (assumptions A3–A6):
// single-block SELECT queries with comma/INNER/LEFT/RIGHT/FULL [OUTER]
// JOIN (optionally NATURAL) table expressions, conjunctive WHERE clauses
// of simple comparisons over arithmetic expressions, optional GROUP BY
// with a single unconstrained aggregate, and the DDL subset (CREATE TABLE
// with PRIMARY KEY / FOREIGN KEY / NOT NULL) needed to declare schemas.
//
// The paper's prototype used the Apache Derby parser; this package is the
// from-scratch substitute.
package sqlparser

import (
	"fmt"
	"strings"

	"repro/internal/schema"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkSymbol // operators and punctuation
)

type token struct {
	text string // keywords upper-cased, identifiers lower-cased
	pos  int32  // byte offset, for diagnostics
	kind tokenKind
}

// mkToken builds a token; the fields are ordered for size (24 bytes),
// which matters because lex sizes its slice for the worst case.
func mkToken(kind tokenKind, text string, pos int) token {
	return token{text: text, pos: int32(pos), kind: kind}
}

func (t token) String() string {
	if t.kind == tkEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// The lexer's keywords are schema.ReservedWords; anything else
// alphanumeric is an identifier. The set lives in the schema package so
// the SQL printers can quote identifiers that would otherwise lex as
// keywords.

// lex tokenizes the input. It returns an error for unterminated strings
// or illegal characters.
func lex(input string) ([]token, error) {
	toks := make([]token, 0, maxTokens(input))
	i, n := 0, len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && input[i+1] == '*': // block comment
			end := strings.Index(input[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("sql: unterminated comment at offset %d", i)
			}
			i += 2 + end + 2
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			if kw, ok := schema.Keyword(word); ok {
				toks = append(toks, mkToken(tkKeyword, kw, start))
			} else {
				toks = append(toks, mkToken(tkIdent, strings.ToLower(word), start))
			}
		case c >= '0' && c <= '9':
			start := i
			for i < n && (input[i] >= '0' && input[i] <= '9') {
				i++
			}
			if i < n && input[i] == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9' {
				i++
				for i < n && input[i] >= '0' && input[i] <= '9' {
					i++
				}
			}
			toks = append(toks, mkToken(tkNumber, input[start:i], start))
		case c == '\'':
			start := i
			i++
			// A literal without escaped quotes is a substring of the
			// input; only one with doubled quotes is rebuilt.
			var sb strings.Builder
			escaped, closed := false, false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						if !escaped {
							escaped = true
							sb.WriteString(input[start+1 : i])
						}
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				if escaped {
					sb.WriteByte(input[i])
				}
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			text := input[start+1 : i-1]
			if escaped {
				text = sb.String()
			}
			toks = append(toks, mkToken(tkString, text, start))
		case c == '"': // quoted identifier
			start := i
			i++
			j := strings.IndexByte(input[i:], '"')
			if j < 0 {
				return nil, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
			}
			toks = append(toks, mkToken(tkIdent, strings.ToLower(input[i:i+j]), start))
			i += j + 1
		default:
			start := i
			// Multi-character operators first.
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=":
				if two == "!=" {
					two = "<>"
				}
				toks = append(toks, mkToken(tkSymbol, two, start))
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.', ';':
				toks = append(toks, mkToken(tkSymbol, input[i:i+1], start))
				i++
			default:
				return nil, fmt.Errorf("sql: illegal character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, mkToken(tkEOF, "", n))
	return toks, nil
}

// Identifiers are ASCII-only. The lexer scans byte-wise, so accepting
// unicode.IsLetter here would treat each byte of a multi-byte rune (or a
// bare Latin-1 byte like 0xC0) as its own letter; strings.ToLower then
// rewrites such invalid UTF-8 to U+FFFD and the canonicalized identifier
// no longer lexes — found by FuzzParseQuery (corpus entry
// non_ascii_ident_rejected: `SELECT \xc0 FROM A0` parsed but its printed
// form did not).
func isIdentStart(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || (r >= '0' && r <= '9')
}

// Byte classes for maxTokens.
const (
	clsOther = iota
	clsSpace
	clsLetter
	clsDigit
)

// byteClass maps each byte to its maxTokens class.
var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			t[c] = clsSpace
		case isIdentStart(rune(c)):
			t[c] = clsLetter
		case c >= '0' && c <= '9':
			t[c] = clsDigit
		}
	}
	return t
}()

// maxTokens bounds the number of tokens lex emits for input, so the
// token slice is sized once: every token starts at a non-space byte that
// is punctuation or begins a run of letters or of digits, so counting
// such bytes (plus the end-of-input token) never undercounts.
func maxTokens(input string) int {
	n := 1
	prev := uint8(clsSpace)
	for i := 0; i < len(input); i++ {
		cls := byteClass[input[i]]
		if cls == clsOther || (cls != clsSpace && cls != prev) {
			n++
		}
		prev = cls
	}
	return n
}
