// Package lang implements the F-lite front end: a small Fortran-flavoured
// language with DO loops, WHILE loops, IF statements, GOTO, and subroutines
// that communicate through program-level (global) variables.
//
// F-lite deliberately reproduces the language model assumed by Lin & Padua,
// "Compiler Analysis of Irregular Memory Accesses" (PLDI 2000): the analyses
// in that paper operate on DO loops, statement-level control-flow graphs and
// array subscript expressions, and assume that procedures exchange values
// through global variables rather than parameters (§3.2.1 of the paper).
package lang

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds follow the operator and literal kinds.
const (
	EOF Kind = iota
	NEWLINE
	IDENT  // x, offset, iblen
	INT    // 42
	REAL   // 3.14, 1e-3
	STRING // "text"

	// Operators and delimiters.
	PLUS   // +
	MINUS  // -
	STAR   // *
	SLASH  // /
	POW    // **
	ASSIGN // =
	EQ     // ==
	NE     // !=
	LT     // <
	LE     // <=
	GT     // >
	GE     // >=
	LPAREN // (
	RPAREN // )
	COMMA  // ,
	COLON  // :
	SEMI   // ;

	// Keywords.
	PROGRAM
	SUBROUTINE
	END
	INTEGER
	REALKW
	LOGICAL
	PARAM
	DO
	WHILE
	ENDDO
	IF
	THEN
	ELSE
	ELSEIF
	ENDIF
	CALL
	GOTO
	CONTINUE
	RETURN
	STOP
	PRINT
	AND
	OR
	NOT
	TRUE
	FALSE
)

var kindNames = map[Kind]string{
	EOF:        "end of file",
	NEWLINE:    "end of line",
	IDENT:      "identifier",
	INT:        "integer literal",
	REAL:       "real literal",
	STRING:     "string literal",
	PLUS:       "+",
	MINUS:      "-",
	STAR:       "*",
	SLASH:      "/",
	POW:        "**",
	ASSIGN:     "=",
	EQ:         "==",
	NE:         "!=",
	LT:         "<",
	LE:         "<=",
	GT:         ">",
	GE:         ">=",
	LPAREN:     "(",
	RPAREN:     ")",
	COMMA:      ",",
	COLON:      ":",
	SEMI:       ";",
	PROGRAM:    "program",
	SUBROUTINE: "subroutine",
	END:        "end",
	INTEGER:    "integer",
	REALKW:     "real",
	LOGICAL:    "logical",
	PARAM:      "param",
	DO:         "do",
	WHILE:      "while",
	ENDDO:      "enddo",
	IF:         "if",
	THEN:       "then",
	ELSE:       "else",
	ELSEIF:     "elseif",
	ENDIF:      "endif",
	CALL:       "call",
	GOTO:       "goto",
	CONTINUE:   "continue",
	RETURN:     "return",
	STOP:       "stop",
	PRINT:      "print",
	AND:        "and",
	OR:         "or",
	NOT:        "not",
	TRUE:       "true",
	FALSE:      "false",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// LookupKeyword returns the keyword kind for ident, or IDENT if ident is not
// a keyword. F-lite keywords are case-insensitive like Fortran's; the lexer
// lower-cases identifiers before calling this.
func LookupKeyword(ident string) Kind {
	switch ident {
	case "program":
		return PROGRAM
	case "subroutine":
		return SUBROUTINE
	case "end":
		return END
	case "integer":
		return INTEGER
	case "real":
		return REALKW
	case "logical":
		return LOGICAL
	case "param":
		return PARAM
	case "do":
		return DO
	case "while":
		return WHILE
	case "enddo":
		return ENDDO
	case "if":
		return IF
	case "then":
		return THEN
	case "else":
		return ELSE
	case "elseif":
		return ELSEIF
	case "endif":
		return ENDIF
	case "call":
		return CALL
	case "goto":
		return GOTO
	case "continue":
		return CONTINUE
	case "return":
		return RETURN
	case "stop":
		return STOP
	case "print":
		return PRINT
	case "and":
		return AND
	case "or":
		return OR
	case "not":
		return NOT
	case "true":
		return TRUE
	case "false":
		return FALSE
	}
	return IDENT
}

// Pos is a position in the source text. Line and Col are 1-based; a zero Pos
// means "no position".
type Pos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Token is one lexical token with its source position and literal text.
type Token struct {
	Kind Kind
	Pos  Pos
	Text string // literal text for IDENT, INT, REAL, STRING
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, REAL:
		return t.Text
	case STRING:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Kind.String()
	}
}
