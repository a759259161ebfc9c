// Package pattern implements the Section 5.1 extension: system call
// argument patterns with application-supplied proof hints.
//
// A pattern is a glob with alternation, e.g. "/tmp/{foo,bar}*baz". Rather
// than teaching the kernel regular-expression matching, the untrusted
// application matches the argument itself and hands the kernel a *hint* —
// one integer per choice point: the branch taken at each alternation and
// the number of characters each '*' consumed. The kernel then verifies
// the match with a single linear scan and no backtracking, in the style
// of program checking / proof-carrying code. The paper's example: pattern
// "/tmp/{foo,bar}*baz" and argument "/tmp/foofoobaz" yield the hint
// (0, 3).
//
// Patterns destined for policies are stored as authenticated strings, so
// the MAC machinery guarantees an attacker cannot substitute patterns.
package pattern

import (
	"errors"
	"fmt"
	"strings"
)

// Errors returned by Parse and Verify.
var (
	ErrBadPattern = errors.New("pattern: malformed pattern")
	ErrNoMatch    = errors.New("pattern: argument does not match")
	ErrBadHint    = errors.New("pattern: hint does not prove a match")
)

// tokKind is a pattern element kind.
type tokKind uint8

const (
	tokLit tokKind = iota + 1
	tokStar
	tokAlt
)

type token struct {
	kind tokKind
	lit  string   // tokLit
	alts []string // tokAlt branches
}

// Pattern is a compiled pattern.
type Pattern struct {
	src    string
	tokens []token
}

// String returns the pattern source.
func (p *Pattern) String() string { return p.src }

// Choices returns the number of choice points (hint length).
func (p *Pattern) Choices() int {
	n := 0
	for _, t := range p.tokens {
		if t.kind != tokLit {
			n++
		}
	}
	return n
}

// Parse compiles a pattern. Supported syntax: literal bytes, '*' (any
// run, including empty), and '{a,b,...}' alternation of literals.
func Parse(src string) (*Pattern, error) {
	p := &Pattern{src: src}
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			p.tokens = append(p.tokens, token{kind: tokLit, lit: lit.String()})
			lit.Reset()
		}
	}
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '*':
			flush()
			p.tokens = append(p.tokens, token{kind: tokStar})
		case '{':
			flush()
			end := strings.IndexByte(src[i:], '}')
			if end < 0 {
				return nil, fmt.Errorf("%w: unclosed '{' in %q", ErrBadPattern, src)
			}
			body := src[i+1 : i+end]
			alts := strings.Split(body, ",")
			if len(alts) < 2 {
				return nil, fmt.Errorf("%w: alternation needs >= 2 branches in %q", ErrBadPattern, src)
			}
			for _, a := range alts {
				if strings.ContainsAny(a, "*{}") {
					return nil, fmt.Errorf("%w: nested pattern in alternation %q", ErrBadPattern, src)
				}
			}
			p.tokens = append(p.tokens, token{kind: tokAlt, alts: alts})
			i += end
		case '}':
			return nil, fmt.Errorf("%w: stray '}' in %q", ErrBadPattern, src)
		default:
			lit.WriteByte(src[i])
		}
	}
	flush()
	return p, nil
}

// Match performs full (backtracking) matching on the application side and
// produces the proof hint for the kernel. This is the expensive half that
// the design keeps out of the kernel.
func (p *Pattern) Match(arg string) ([]int, error) {
	hint, ok := p.match(0, arg, nil)
	if !ok {
		return nil, fmt.Errorf("%w: %q vs %q", ErrNoMatch, arg, p.src)
	}
	return hint, nil
}

func (p *Pattern) match(ti int, rest string, hint []int) ([]int, bool) {
	if ti == len(p.tokens) {
		if rest == "" {
			return append([]int(nil), hint...), true
		}
		return nil, false
	}
	t := p.tokens[ti]
	switch t.kind {
	case tokLit:
		if !strings.HasPrefix(rest, t.lit) {
			return nil, false
		}
		return p.match(ti+1, rest[len(t.lit):], hint)
	case tokAlt:
		for bi, alt := range t.alts {
			if strings.HasPrefix(rest, alt) {
				if h, ok := p.match(ti+1, rest[len(alt):], append(hint, bi)); ok {
					return h, ok
				}
			}
		}
		return nil, false
	case tokStar:
		for n := 0; n <= len(rest); n++ {
			if h, ok := p.match(ti+1, rest[n:], append(hint, n)); ok {
				return h, ok
			}
		}
		return nil, false
	}
	return nil, false
}

// Verify is the kernel-side check: a single linear scan over the pattern
// and argument directed by the hint. It never backtracks; its cost is
// O(len(pattern) + len(arg)). It reports the number of bytes examined so
// the cycle model can charge for them.
func (p *Pattern) Verify(arg string, hint []int) (scanned int, err error) {
	hi := 0
	pos := 0
	for _, t := range p.tokens {
		switch t.kind {
		case tokLit:
			end := pos + len(t.lit)
			if end > len(arg) || arg[pos:end] != t.lit {
				return scanned, ErrBadHint
			}
			scanned += len(t.lit)
			pos = end
		case tokAlt:
			if hi >= len(hint) {
				return scanned, fmt.Errorf("%w: hint too short", ErrBadHint)
			}
			bi := hint[hi]
			hi++
			if bi < 0 || bi >= len(t.alts) {
				return scanned, fmt.Errorf("%w: branch %d out of range", ErrBadHint, bi)
			}
			alt := t.alts[bi]
			end := pos + len(alt)
			if end > len(arg) || arg[pos:end] != alt {
				return scanned, ErrBadHint
			}
			scanned += len(alt)
			pos = end
		case tokStar:
			if hi >= len(hint) {
				return scanned, fmt.Errorf("%w: hint too short", ErrBadHint)
			}
			n := hint[hi]
			hi++
			if n < 0 || pos+n > len(arg) {
				return scanned, fmt.Errorf("%w: star length %d out of range", ErrBadHint, n)
			}
			scanned += n
			pos += n
		}
	}
	if hi != len(hint) {
		return scanned, fmt.Errorf("%w: hint too long", ErrBadHint)
	}
	if pos != len(arg) {
		return scanned, ErrBadHint
	}
	return scanned, nil
}
