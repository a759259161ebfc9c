package pattern

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperExample(t *testing.T) {
	// "/tmp/{foo,bar}*baz" vs "/tmp/foofoobaz" -> hint (0, 3).
	p, err := Parse("/tmp/{foo,bar}*baz")
	if err != nil {
		t.Fatal(err)
	}
	hint, err := p.Match("/tmp/foofoobaz")
	if err != nil {
		t.Fatal(err)
	}
	if len(hint) != 2 || hint[0] != 0 || hint[1] != 3 {
		t.Errorf("hint = %v, want [0 3]", hint)
	}
	if _, err := p.Verify("/tmp/foofoobaz", hint); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// The bar branch.
	hint2, err := p.Match("/tmp/barbaz")
	if err != nil {
		t.Fatal(err)
	}
	if hint2[0] != 1 || hint2[1] != 0 {
		t.Errorf("hint = %v, want [1 0]", hint2)
	}
}

func TestMatchFailures(t *testing.T) {
	p, err := Parse("/tmp/*.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"/etc/passwd", "/tmp/x.txt", "tmp/a.log", ""} {
		if _, err := p.Match(bad); !errors.Is(err, ErrNoMatch) {
			t.Errorf("Match(%q) = %v, want ErrNoMatch", bad, err)
		}
	}
	if hint, err := p.Match("/tmp/app.log"); err != nil || len(hint) != 1 || hint[0] != 3 {
		t.Errorf("Match(/tmp/app.log) = %v, %v", hint, err)
	}
}

func TestVerifyRejectsForgedHints(t *testing.T) {
	p, err := Parse("/tmp/{a,bb}*x")
	if err != nil {
		t.Fatal(err)
	}
	arg := "/tmp/bbzzx"
	good, err := p.Match(arg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Verify(arg, good); err != nil {
		t.Fatalf("good hint rejected: %v", err)
	}
	bads := [][]int{
		{0, 2},    // wrong branch
		{1, 1},    // wrong star length
		{1},       // too short
		{1, 2, 0}, // too long
		{5, 2},    // branch out of range
		{1, 100},  // star beyond arg
		{1, -1},   // negative
	}
	for _, h := range bads {
		if _, err := p.Verify(arg, h); err == nil {
			t.Errorf("forged hint %v accepted", h)
		}
	}
	// A hint for one argument must not validate another.
	if _, err := p.Verify("/tmp/azzx", good); err == nil {
		t.Error("hint transplanted across arguments accepted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"{a,b", "a}b", "{a}", "{a,{b,c}}"} {
		if _, err := Parse(bad); !errors.Is(err, ErrBadPattern) {
			t.Errorf("Parse(%q) = %v, want ErrBadPattern", bad, err)
		}
	}
}

// Property: whenever Match succeeds, Verify accepts its hint; the scan
// cost is linear in the argument.
func TestPropertyMatchVerifyAgree(t *testing.T) {
	p, err := Parse("/var/{log,run}/*.{pid,txt}")
	if err != nil {
		t.Fatal(err)
	}
	f := func(mid string, a, b bool) bool {
		mid = strings.Map(func(r rune) rune {
			if r == '\x00' || r == '*' || r == '{' || r == '}' || r == ',' {
				return 'x'
			}
			return r
		}, mid)
		dir, ext := "log", "pid"
		if a {
			dir = "run"
		}
		if b {
			ext = "txt"
		}
		arg := "/var/" + dir + "/" + mid + "." + ext
		hint, err := p.Match(arg)
		if err != nil {
			// Some mids legitimately fail (e.g. contain "."
			// sequences that shift the extension); skip those.
			return true
		}
		scanned, err := p.Verify(arg, hint)
		return err == nil && scanned <= len(arg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChoices(t *testing.T) {
	p, _ := Parse("/tmp/{a,b}*{c,d}*")
	if p.Choices() != 4 {
		t.Errorf("Choices = %d, want 4", p.Choices())
	}
}
