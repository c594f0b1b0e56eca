package lang

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("x = y + 2*z(i,j)\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{IDENT, ASSIGN, IDENT, PLUS, INT, STAR, IDENT, LPAREN, IDENT, COMMA, IDENT, RPAREN, NEWLINE}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v tokens, want %v: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	cases := []struct {
		src  string
		want Kind
	}{
		{"==", EQ}, {"!=", NE}, {"/=", NE}, {"<", LT}, {"<=", LE},
		{">", GT}, {">=", GE}, {"**", POW}, {"=", ASSIGN}, {"/", SLASH},
		{":", COLON}, {";", SEMI},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if len(toks) != 1 || toks[0].Kind != c.want {
			t.Errorf("%q: got %v, want one %s", c.src, toks, c.want)
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		text string
	}{
		{"42", INT, "42"},
		{"3.14", REAL, "3.14"},
		{"1e3", REAL, "1e3"},
		{"2.5e-4", REAL, "2.5e-4"},
		{"1d0", REAL, "1e0"},
		{".5", REAL, ".5"},
	}
	for _, c := range cases {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if len(toks) != 1 {
			t.Fatalf("%q: got %d tokens %v", c.src, len(toks), toks)
		}
		if toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%q: got (%s,%q), want (%s,%q)", c.src, toks[0].Kind, toks[0].Text, c.kind, c.text)
		}
	}
}

func TestTokenizeKeywordsCaseInsensitive(t *testing.T) {
	toks, err := Tokenize("DO i = 1, N\nEnd Do")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != DO {
		t.Errorf("got %s, want do", toks[0].Kind)
	}
	// Identifier N is lower-cased.
	if toks[5].Kind != IDENT || toks[5].Text != "n" {
		t.Errorf("got %v, want ident n", toks[5])
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("x = 1 ! set x\ny = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{IDENT, ASSIGN, INT, NEWLINE, IDENT, ASSIGN, INT, NEWLINE}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTokenizeBlankLinesCollapse(t *testing.T) {
	toks, err := Tokenize("\n\n\nx = 1\n\n\ny = 2\n\n")
	if err != nil {
		t.Fatal(err)
	}
	nl := 0
	for _, tok := range toks {
		if tok.Kind == NEWLINE {
			nl++
		}
	}
	if nl != 2 {
		t.Errorf("got %d NEWLINE tokens, want 2: %v", nl, toks)
	}
}

func TestTokenizeContinuation(t *testing.T) {
	toks, err := Tokenize("x = 1 + &\n    2\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{IDENT, ASSIGN, INT, PLUS, INT, NEWLINE}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
}

func TestTokenizeString(t *testing.T) {
	toks, err := Tokenize(`print "hello ""world"""` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != STRING || toks[1].Text != `hello "world"` {
		t.Errorf("got %v", toks[1])
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "x = $"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%q: expected error", src)
		} else if !strings.Contains(err.Error(), ":") {
			t.Errorf("%q: error lacks position: %v", src, err)
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("x = 1\n  y = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("x at %v, want 1:1", toks[0].Pos)
	}
	if toks[4].Pos != (Pos{2, 3}) {
		t.Errorf("y at %v, want 2:3", toks[4].Pos)
	}
}

// TestLookupKeywordEveryCase lexes every keyword in lower, upper and mixed
// case to its kind, and near misses of keywords to identifiers.
func TestLookupKeywordEveryCase(t *testing.T) {
	for k := PROGRAM; k <= FALSE; k++ {
		word := kindNames[k]
		for _, spelling := range []string{word, strings.ToUpper(word), strings.ToUpper(word[:1]) + word[1:]} {
			toks, err := Tokenize(spelling + "\n")
			if err != nil || toks[0].Kind != k {
				t.Errorf("%q lexes to %v (%v), want %s", spelling, toks, err, k)
			}
		}
	}
	for _, near := range []string{"dox", "Dox", "ends", "iff", "els", "print2", "program_", "nott"} {
		toks, err := Tokenize(near + "\n")
		if err != nil || toks[0].Kind != IDENT {
			t.Errorf("%q lexes to %v (%v), want an identifier", near, toks, err)
		}
	}
}
