// Package sqlparse is a front end for the SPJ SQL subset the optimizer
// handles:
//
//	SELECT <cols|*> FROM <tables> [WHERE <conjuncts>] [ORDER BY <col>]
//
// where each conjunct is either an equi-join (a.x = b.y) or a selection
// against a numeric literal (a.x < 10). Parse produces an AST; Bind
// resolves it against a catalog into a query.SPJ with estimated
// selectivities (histograms when available, System R defaults otherwise).
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind classifies lexed tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokStar
	tokEQ
	tokLT
	tokLE
	tokGT
	tokGE
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokStar:
		return "'*'"
	case tokEQ:
		return "'='"
	case tokLT:
		return "'<'"
	case tokLE:
		return "'<='"
	case tokGT:
		return "'>'"
	case tokGE:
		return "'>='"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// token is one lexed unit.
type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

// lex tokenizes the input. Keywords stay tokIdent; the parser matches them
// case-insensitively.
func lex(input string) ([]token, error) {
	out := make([]token, 0, tokenBound(input))
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == ',':
			out = append(out, token{kind: tokComma, text: ",", pos: i})
			i++
		case c == '.':
			out = append(out, token{kind: tokDot, text: ".", pos: i})
			i++
		case c == '*':
			out = append(out, token{kind: tokStar, text: "*", pos: i})
			i++
		case c == '=':
			out = append(out, token{kind: tokEQ, text: "=", pos: i})
			i++
		case c == '<':
			if i+1 < len(input) && input[i+1] == '=' {
				out = append(out, token{kind: tokLE, text: "<=", pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokLT, text: "<", pos: i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				out = append(out, token{kind: tokGE, text: ">=", pos: i})
				i += 2
			} else {
				out = append(out, token{kind: tokGT, text: ">", pos: i})
				i++
			}
		case unicode.IsDigit(c) || (c == '-' && i+1 < len(input) && unicode.IsDigit(rune(input[i+1]))):
			j := i + 1
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.' || input[j] == 'e' ||
				input[j] == 'E' || ((input[j] == '+' || input[j] == '-') && (input[j-1] == 'e' || input[j-1] == 'E'))) {
				j++
			}
			text := input[i:j]
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlparse: bad number %q at offset %d", text, i)
			}
			out = append(out, token{kind: tokNumber, text: text, num: v, pos: i})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i + 1
			for j < len(input) && (unicode.IsLetter(rune(input[j])) || unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			out = append(out, token{kind: tokIdent, text: input[i:j], pos: i})
			i = j
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF, pos: len(input)})
	return out, nil
}

// tokenBound returns an upper bound on the number of tokens lex emits, so
// the token slice is allocated once instead of growing by doubling: every
// token starts at a punctuation byte or at a byte that follows a space or
// punctuation, and EOF adds one.
func tokenBound(input string) int {
	n, prevSep := 1, true
	for i := 0; i < len(input); i++ {
		switch c := input[i]; {
		case unicode.IsSpace(rune(c)):
			prevSep = true
		case strings.IndexByte(",.*=<>-", c) >= 0:
			n++
			prevSep = true
		default:
			if prevSep {
				n++
			}
			prevSep = false
		}
	}
	return n
}

// isKeyword reports whether the token is the given keyword
// (case-insensitive).
func (t token) isKeyword(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
