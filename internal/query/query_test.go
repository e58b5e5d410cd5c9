package query

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestParseRoot(t *testing.T) {
	for _, s := range []string{"/", "/\n", "  /  ", "//"} {
		q, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if !q.Root() || q.Depth() != 0 || q.Filter != FilterNone {
			t.Errorf("Parse(%q) = %+v", s, q)
		}
	}
}

func TestParsePaths(t *testing.T) {
	q := MustParse("/meteor")
	if q.Depth() != 1 || !q.Segments[0].Match("meteor") || q.Segments[0].Match("nashi") {
		t.Errorf("one segment: %+v", q)
	}
	q = MustParse("/meteor/compute-0-0/")
	if q.Depth() != 2 || !q.Segments[1].Match("compute-0-0") {
		t.Errorf("two segments: %+v", q)
	}
	q = MustParse("/meteor/compute-0-0/load_one")
	if q.Depth() != 3 || !q.Segments[2].Match("load_one") {
		t.Errorf("three segments: %+v", q)
	}
}

func TestParseFilter(t *testing.T) {
	q := MustParse("/meteor?filter=summary")
	if q.Filter != FilterSummary || q.Depth() != 1 {
		t.Errorf("%+v", q)
	}
	q = MustParse("/?filter=summary")
	if q.Filter != FilterSummary || !q.Root() {
		t.Errorf("%+v", q)
	}
	if _, err := Parse("/meteor?filter=bogus"); !errors.Is(err, ErrBadFilter) {
		t.Errorf("bad filter: %v", err)
	}
	if _, err := Parse("/meteor?summary"); !errors.Is(err, ErrBadFilter) {
		t.Errorf("missing filter=: %v", err)
	}
}

func TestParseHistoryParams(t *testing.T) {
	q := MustParse("/meteor/compute-0-0/load_one?filter=history&start=100&end=200&step=30&cf=max&topk=3")
	if q.Filter != FilterHistory {
		t.Fatalf("filter = %v", q.Filter)
	}
	p := q.Params
	if !p.HasStart || p.Start != 100 || !p.HasEnd || p.End != 200 {
		t.Errorf("range = %+v", p)
	}
	if p.Step != 30 || p.CF != "MAX" || p.TopK != 3 {
		t.Errorf("step/cf/topk = %+v", p)
	}
	if st, ok := p.StartTime(); !ok || st.Unix() != 100 {
		t.Errorf("StartTime = %v %v", st, ok)
	}
	if p.StepDuration() != 30*time.Second {
		t.Errorf("StepDuration = %v", p.StepDuration())
	}

	// Order independence and implied filter.
	q2 := MustParse("/meteor/compute-0-0/load_one?cf=MAX&topk=3&end=200&step=30&start=100")
	if q2.Filter != FilterHistory {
		t.Errorf("params did not imply filter=history: %v", q2.Filter)
	}
	if q2.Key() != q.Key() {
		t.Errorf("param order changes key: %q vs %q", q2.Key(), q.Key())
	}

	// start > end is a parse-level pass; the engine answers it empty.
	if q := MustParse("/m/h/x?start=200&end=100"); q.Params.Start != 200 || q.Params.End != 100 {
		t.Errorf("inverted range mangled: %+v", q.Params)
	}

	// A bare history filter has zero params.
	if q := MustParse("/m/h/x?filter=history"); !q.Params.Zero() {
		t.Errorf("bare history has params: %+v", q.Params)
	}
}

func TestParseParamErrors(t *testing.T) {
	cases := map[string]error{
		"/m/h/x?start=abc":                     ErrBadParam,
		"/m/h/x?step=0":                        ErrBadParam,
		"/m/h/x?step=-5":                       ErrBadParam,
		"/m/h/x?cf=median":                     ErrBadParam,
		"/m/h/x?topk=0":                        ErrBadParam,
		"/m/h/x?topk=x":                        ErrBadParam,
		"/m/h/x?bogus=1":                       ErrBadParam,
		"/m/h/x?start=1&start=2":               ErrDupParam,
		"/m/h/x?filter=history&filter=history": ErrDupParam,
		"/m?filter=summary&start=1":            ErrBadParam, // params need history
		"/m?filter=stream&topk=2":              ErrBadParam,
		"/m/h/x?summary":                       ErrBadFilter, // legacy spelling
	}
	for s, want := range cases {
		if _, err := Parse(s); !errors.Is(err, want) {
			t.Errorf("Parse(%q) = %v, want %v", s, err, want)
		}
	}
}

func TestParamsCanonicalString(t *testing.T) {
	// cf case-folds, param order normalizes, implied filter appears.
	q := MustParse("/m/h/x?cf=average&start=007")
	want := "/m/h/x?filter=history&start=7&cf=AVERAGE"
	if q.String() != want {
		t.Errorf("String = %q, want %q", q.String(), want)
	}
	if q2 := MustParse(q.String()); q2.String() != want {
		t.Errorf("not a fixed point: %q", q2.String())
	}
}

func TestParseRegexSegments(t *testing.T) {
	q := MustParse("/meteor/~compute-0-[0-4]$")
	m := q.Segments[1]
	if !m.IsRegex() {
		t.Fatal("not parsed as regex")
	}
	for _, host := range []string{"compute-0-0", "compute-0-4"} {
		if !m.Match(host) {
			t.Errorf("regex should match %s", host)
		}
	}
	for _, host := range []string{"compute-0-5", "other"} {
		if m.Match(host) {
			t.Errorf("regex should not match %s", host)
		}
	}
	if _, err := Parse("/meteor/~compute-0-["); !errors.Is(err, ErrBadRegex) {
		t.Errorf("bad regex: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]error{
		"":                ErrEmpty,
		"   ":             ErrEmpty,
		"meteor":          ErrNoSlash,
		"/a/b/c/d":        ErrTooDeep,
		"/a//b":           ErrEmptySeg,
		"?filter=summary": ErrNoSlash,
	}
	for s, want := range cases {
		if _, err := Parse(s); !errors.Is(err, want) {
			t.Errorf("Parse(%q) = %v, want %v", s, err, want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"/", "/meteor", "/meteor/compute-0-0", "/meteor/compute-0-0/load_one", "/meteor?filter=summary", "/a/~b.*",
		"/m/h/x?filter=history&start=100&end=200&step=30&cf=MIN&topk=2",
		"/m/h/x?start=-60&cf=last",
		"/m/x?topk=5"} {
		q := MustParse(s)
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("reparse %q: %v", q.String(), err)
			continue
		}
		if q2.String() != q.String() {
			t.Errorf("unstable: %q -> %q", q.String(), q2.String())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("no-slash")
}

func TestLiteralMatcher(t *testing.T) {
	m := Literal("load_one")
	if !m.Match("load_one") || m.Match("load_five") || m.IsRegex() {
		t.Errorf("Literal matcher misbehaves: %+v", m)
	}
	if m.Name() != "load_one" {
		t.Errorf("Name = %q", m.Name())
	}
}

// Property: parsing never panics and either errors or yields ≤3
// segments.
func TestQuickParseRobust(t *testing.T) {
	f := func(s string) bool {
		q, err := Parse(s)
		if err != nil {
			return q == nil
		}
		return q.Depth() <= MaxDepth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: any literal path round-trips through String.
func TestQuickLiteralRoundTrip(t *testing.T) {
	ok := func(seg string) bool {
		if seg == "" {
			return false
		}
		for _, r := range seg {
			switch r {
			case '/', '?', '~', '\n', '\r', ' ', '\t':
				return false
			}
		}
		return true
	}
	f := func(a, b string) bool {
		if !ok(a) || !ok(b) {
			return true
		}
		s := "/" + a + "/" + b
		q, err := Parse(s)
		if err != nil {
			return false
		}
		return q.Depth() == 2 && q.Segments[0].Match(a) && q.Segments[1].Match(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Unicode spaces belong to names: only the wire protocol's ASCII
// whitespace is trimmed, so a literal segment ending in U+00A0 or
// U+2005 matches itself and not the name without it.
func TestParseKeepsUnicodeSpaces(t *testing.T) {
	for _, sp := range []string{"\u00a0", "\u2005"} {
		a, b := "compute"+sp, "load_one"+sp
		q, err := Parse(" \t/" + a + "/" + b + "\r\n")
		if err != nil {
			t.Fatalf("%U: %v", []rune(sp)[0], err)
		}
		if q.Depth() != 2 || !q.Segments[0].Match(a) || !q.Segments[1].Match(b) {
			t.Errorf("%U: %q does not match its own segments", []rune(sp)[0], q.String())
		}
		if q.Segments[0].Match("compute") || q.Segments[1].Match("load_one") {
			t.Errorf("%U: segments match the names without the space", []rune(sp)[0])
		}
		if q, err := Parse("/" + sp); err != nil || q.Depth() != 1 || !q.Segments[0].Match(sp) {
			t.Errorf("%U alone: Parse = %v, %v; want a one-segment literal", []rune(sp)[0], q, err)
		}
	}
	if _, err := Parse("/a/ \t/b"); err != ErrEmptySeg {
		t.Errorf("ASCII-blank segment: err = %v, want ErrEmptySeg", err)
	}
}

func BenchmarkParseTypical(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("/meteor/compute-0-0/"); err != nil {
			b.Fatal(err)
		}
	}
}
