package schema

// ReservedWords is the canonical keyword set of the SQL fragment: the
// lexer (internal/sqlparser) tokenizes exactly these as keywords, and
// every SQL printer quotes identifiers that collide with them. Keeping
// the single source of truth here (the leaf package all printers and the
// parser already import) guarantees the two sides cannot drift: a word
// the lexer reserves is, by construction, a word the printers escape.
var ReservedWords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"AS": true, "ON": true, "AND": true, "OR": true, "NOT": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"OUTER": true, "NATURAL": true, "CROSS": true,
	"DISTINCT": true, "ALL": true, "NULL": true, "IS": true, "IN": true, "EXISTS": true, "LIKE": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"CREATE": true, "TABLE": true, "INSERT": true, "INTO": true, "VALUES": true, "PRIMARY": true, "KEY": true,
	"FOREIGN": true, "REFERENCES": true, "UNIQUE": true, "CHECK": true,
	"INT": true, "INTEGER": true, "SMALLINT": true, "BIGINT": true,
	"VARCHAR": true, "CHAR": true, "TEXT": true,
	"FLOAT": true, "REAL": true, "DOUBLE": true, "PRECISION": true,
	"NUMERIC": true, "DECIMAL": true, "BOOLEAN": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, // recognized to reject clearly
	"TRUE": true, "FALSE": true,
}

// QuoteIdent renders an identifier so the lexer reads it back verbatim:
// bare when it already lexes as a single non-keyword identifier, and
// double-quoted otherwise (spaces, leading digits, reserved words,
// non-ASCII). Every SQL printer in the repo — DDL, queries, INSERTs,
// mutant rendering, randql reproducers — goes through this, which is
// what makes the parser↔printer round-trip a checkable invariant
// (FuzzParseQuery/FuzzParseDDL assert it on arbitrary inputs).
func QuoteIdent(s string) string {
	if isBareIdent(s) {
		if _, reserved := Keyword(s); !reserved {
			return s
		}
	}
	return `"` + s + `"`
}

// maxKeywordLen is the length of the longest reserved word.
const maxKeywordLen = len("REFERENCES")

// keywordsByLen[n] lists the reserved words of length n.
var keywordsByLen = func() (t [maxKeywordLen + 1][]string) {
	for w := range ReservedWords {
		if len(w) > maxKeywordLen {
			panic("schema: reserved word " + w + " longer than maxKeywordLen")
		}
		t[len(w)] = append(t[len(w)], w)
	}
	return t
}()

// Keyword reports whether the ASCII word is a reserved word in any
// letter case, and returns its canonical upper-case spelling. It
// compares against the reserved words of the word's length without
// building a string, so neither a hit nor a miss allocates. Non-ASCII
// bytes never match a reserved word.
func Keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
next:
	for _, kw := range keywordsByLen[len(word)] {
		for i := 0; i < len(word); i++ {
			c := word[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != kw[i] {
				continue next
			}
		}
		return kw, true
	}
	return "", false
}

// isBareIdent reports whether s lexes as one unquoted identifier:
// ASCII letters, digits and underscores, not starting with a digit.
func isBareIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// quoteAll maps QuoteIdent over a list of identifiers.
func quoteAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = QuoteIdent(n)
	}
	return out
}
