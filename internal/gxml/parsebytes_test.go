package gxml

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"ganglia/internal/metric"
)

// TestSyntaxErrorOffsets pins every error the tokenizer can raise to
// the message and byte offset the streaming (bufio) tokenizer it
// replaced reported: the rows were produced by that tokenizer, and the
// two were differentially fuzzed to agreement (events and errors) when
// the slice tokenizer went in. Operators grep for these strings.
func TestSyntaxErrorOffsets(t *testing.T) {
	cases := []struct{ doc, want string }{
		{"", "gxml: offset 0: empty document"},
		{"   ", "gxml: offset 3: empty document"},
		{"<", "gxml: offset 1: truncated tag"},
		{"<GANGLIA_XML", "gxml: offset 12: truncated name"},
		{"<GANGLIA_XML VERSION", "gxml: offset 20: truncated name"},
		{"<GANGLIA_XML VERSION=", "gxml: offset 21: truncated attribute value"},
		{"<GANGLIA_XML VERSION=\"1", "gxml: offset 23: truncated attribute value"},
		{"<GANGLIA_XML VERSION=\"1\" SOURCE=\"s\">", "gxml: offset 36: unexpected EOF inside <GANGLIA_XML>"},
		{"<GANGLIA_XML VERSION=\"1\" SOURCE=\"s\"><CLUSTER NAME=\"c\"></GANGLIA_XML>", "gxml: offset 68: </GANGLIA_XML> closes <CLUSTER>"},
		{"<GANGLIA_XML VERSION=\"1\"></GANGLIA_XML></GANGLIA_XML>", "gxml: offset 53: unmatched </GANGLIA_XML>"},
		{"<GANGLIA_XML VERSION=1/>", "gxml: offset 22: attribute value must be quoted, found '1'"},
		{"<GANGLIA_XML VERSION \"1\"/>", "gxml: offset 22: expected '=', found '\"'"},
		{"<GANGLIA_XML VER$ION=\"1\"/>", "gxml: offset 17: invalid name byte '$'"},
		{"<GANGLIA_XML =\"1\"/>", "gxml: offset 13: empty name"},
		{"<GANGLIA_XML VERSION=\"1\"/ >", "gxml: offset 26: expected '>' after '/' in <GANGLIA_XML>"},
		{"<GANGLIA_XML VERSION=\"1\"/", "gxml: offset 25: expected '>' after '/' in <GANGLIA_XML>"},
		{"<GANGLIA_XML VERSION=\"&bogus;\"/>", "gxml: offset 29: unknown entity &bogus;"},
		{"<GANGLIA_XML VERSION=\"&#xZZ;\"/>", "gxml: offset 28: bad character reference &#xZZ;"},
		{"<GANGLIA_XML VERSION=\"&#99999999999;\"/>", "gxml: offset 33: entity too long"},
		{"<GANGLIA_XML VERSION=\"&averyverylongentity;\"/>", "gxml: offset 33: entity too long"},
		{"<GANGLIA_XML VERSION=\"&amp\"/>", "gxml: offset 29: truncated entity"},
		{"<GANGLIA_XML VERSION=\"&am", "gxml: offset 25: truncated entity"},
		{"<GANGLIA_XML></GANGLIA_XML x>", "gxml: offset 28: unexpected 'x' in end tag"},
		{"<GANGLIA_XML></GANGLIA_XML", "gxml: offset 26: truncated name"},
		{"<GANGLIA_XML></", "gxml: offset 15: truncated name"},
		{"<GANGLIA_XML></>", "gxml: offset 15: empty name"},
		{"<?xml version=\"1.0\"", "gxml: offset 19: truncated \"?>\" section"},
		{"<?xml?><!-- unterminated", "gxml: offset 24: truncated comment"},
		{"<!DOCTYPE GANGLIA_XML [ <!ELEMENT X (Y)> ", "gxml: offset 41: truncated declaration"},
		{"<!--->", "gxml: offset 6: truncated comment"},
		{"<GANGLIA_XML><HOST NAME=\"h\"/></GANGLIA_XML>", "gxml: offset 29: HOST inside <GANGLIA_XML>"},
		{"<GANGLIA_XML><CLUSTER NAME=\"c\"><METRIC NAME=\"m\"/></CLUSTER></GANGLIA_XML>", "gxml: offset 49: METRIC inside <CLUSTER>"},
		{"<GANGLIA_XML><CLUSTER NAME=\"c\"><GRID NAME=\"g\"/></CLUSTER></GANGLIA_XML>", "gxml: offset 47: GRID inside <CLUSTER>"},
		{"<GRID NAME=\"g\"><GANGLIA_XML/></GRID>", "gxml: offset 15: GRID inside <>"},
		{"<GANGLIA_XML><GRID NAME=\"g\"><HISTORY/></GRID></GANGLIA_XML>", "gxml: offset 38: HISTORY inside <GRID>"},
		{"<GANGLIA_XML><POINT T=\"1\"/></GANGLIA_XML>", "gxml: offset 27: POINT inside <GANGLIA_XML>"},
		{"<GANGLIA_XML><CLUSTER NAME=\"c\"><SOURCE_HEALTH NAME=\"x\"/></CLUSTER></GANGLIA_XML>", "gxml: offset 56: SOURCE_HEALTH inside <CLUSTER>"},
		{"<GANGLIA_XML><HOSTS UP=\"1\"/></GANGLIA_XML>", "gxml: offset 28: HOSTS inside <GANGLIA_XML>"},
		{"<GANGLIA_XML><METRICS NAME=\"m\"/></GANGLIA_XML>", "gxml: offset 32: METRICS inside <GANGLIA_XML>"},
		{"<GANGLIA_XML><CLUSTER NAME=\"c\"><HOST NAME=\"h\"><METRIC NAME=\"m\" VAL=\"1\"</HOST></CLUSTER></GANGLIA_XML>", "gxml: offset 71: invalid name byte '<'"},
		{"<GANGLIA_XML>\n<CLUSTER NAME=\"c\">\n<HOST NAME=\"h\" IP=\"\">\n<METRIC NAME=\"m\" VAL=\"1\" TYPE=\"int32\"/>\n</HOST>\n</CLUSTER", "gxml: offset 112: truncated name"},
		{"<GANGLIA_XML><UNKNOWN><HOST/></UNKNOWN></CLUSTER></GANGLIA_XML>", "gxml: offset 49: </CLUSTER> closes <GANGLIA_XML>"},
	}
	for _, tc := range cases {
		for _, parse := range []func() error{
			func() error { return ParseBytes([]byte(tc.doc), &Handler{}) },
			func() error { return ParseStream(iotest.OneByteReader(strings.NewReader(tc.doc)), &Handler{}) },
		} {
			err := parse()
			if got := fmt.Sprint(err); got != tc.want {
				t.Errorf("%q:\n got %s\nwant %s", tc.doc, got, tc.want)
			}
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%q: error %v is not a *SyntaxError", tc.doc, err)
			}
		}
	}
}

// TestParseStreamReadError: a download that ends in an error other than
// EOF reports that error, unless the cut already left a syntax error.
func TestParseStreamReadError(t *testing.T) {
	boom := errors.New("link reset")
	whole := `<GANGLIA_XML VERSION="1" SOURCE="s"/>` + "\n"
	err := ParseStream(io.MultiReader(strings.NewReader(whole), iotest.ErrReader(boom)), &Handler{})
	if err != boom {
		t.Errorf("complete document then read error: got %v, want the read error", err)
	}
	err = ParseStream(io.MultiReader(strings.NewReader(whole[:20]), iotest.ErrReader(boom)), &Handler{})
	var se *SyntaxError
	if !errors.As(err, &se) || se.Offset != 20 {
		t.Errorf("document cut inside a tag: got %v, want a syntax error at offset 20", err)
	}
}

// TestReadReport covers the whole-document read in front of the parser:
// buffer reuse, growth, sized and unsized readers, and error delivery.
func TestReadReport(t *testing.T) {
	doc := bytes.Repeat([]byte("0123456789"), 1000)
	got, err := ReadReport(bytes.NewReader(doc), nil)
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("sized reader: %d bytes, err %v", len(got), err)
	}
	buf := make([]byte, 0, 2*len(doc))
	got, err = ReadReport(iotest.OneByteReader(bytes.NewReader(doc)), buf)
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("unsized reader: %d bytes, err %v", len(got), err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("a buffer with room was not reused")
	}
	got, err = ReadReport(iotest.HalfReader(bytes.NewReader(doc)), make([]byte, 5, 16))
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("small buffer: %d bytes, err %v", len(got), err)
	}
	boom := errors.New("boom")
	got, err = ReadReport(io.MultiReader(bytes.NewReader(doc[:100]), iotest.ErrReader(boom)), nil)
	if err != boom || !bytes.Equal(got, doc[:100]) {
		t.Fatalf("failing reader: %d bytes, err %v", len(got), err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		buf, _ = ReadReport(bytes.NewReader(doc), buf)
	}); allocs > 1 { // the bytes.Reader handed in
		t.Errorf("reading into a kept buffer allocates %.0f times", allocs)
	}
}

// spanRecorder takes every HOST element it has been shown before (by
// its bytes) and records the spans it was offered and told.
type spanRecorder struct {
	known  map[string]bool
	parsed []string
	taken  []string
}

func (r *spanRecorder) offer(doc []byte, start int) int {
	for el := range r.known {
		if bytes.HasPrefix(doc[start:], []byte(el)) {
			r.taken = append(r.taken, el)
			return len(el)
		}
	}
	return 0
}

// TestHostSpans drives the reuse hook: spans are exact (open tag to the
// close tag's '>', self-closing form included), a taken element fires
// no events and parsing resumes right behind it, and the hook sees only
// HOST elements in CLUSTER position outside unknown subtrees.
func TestHostSpans(t *testing.T) {
	h1 := `<HOST NAME="a" IP="1"><METRIC NAME="m" VAL="1" TYPE="int32"/></HOST >`
	h2 := `<HOST NAME="b" IP="2"/>`
	h3 := `<HOST NAME="c" IP="3">` + "\n" + `<METRIC NAME="m" VAL="3" TYPE="int32"/><!-- > --></HOST>`
	doc := `<GANGLIA_XML VERSION="1" SOURCE="s"><CLUSTER NAME="c" OWNER="" URL="" LOCALTIME="0">` +
		h1 + "\n" + h2 + `<FUTURE><HOST NAME="skipped"/></FUTURE>` + h3 + `<HOSTILE X="1"/></CLUSTER></GANGLIA_XML>`

	rec := &spanRecorder{}
	events := func() (*Handler, *[]string) {
		var ev []string
		return &Handler{
			OfferHost: rec.offer,
			StartHost: func(h Host) { ev = append(ev, "start "+h.Name) },
			EndHost: func(start, end int) {
				ev = append(ev, "end")
				rec.parsed = append(rec.parsed, doc[start:end])
			},
			Metric: func(m metric.Metric) { ev = append(ev, "metric "+m.Val.Text()) },
		}, &ev
	}
	h, ev := events()
	if err := ParseBytes([]byte(doc), h); err != nil {
		t.Fatal(err)
	}
	if want := []string{h1, h2, h3}; !slices.Equal(rec.parsed, want) {
		t.Fatalf("parsed spans:\n%q\nwant\n%q", rec.parsed, want)
	}
	cold := strings.Join(*ev, ",")
	if want := "start a,metric 1,end,start b,end,start c,metric 3,end"; cold != want {
		t.Fatalf("events %s, want %s", cold, want)
	}

	// Second pass: the first and third elements are known and taken.
	rec.known, rec.parsed = map[string]bool{h1: true, h3: true}, nil
	h, ev = events()
	if err := ParseBytes([]byte(doc), h); err != nil {
		t.Fatal(err)
	}
	if len(rec.taken) != 2 || !slices.Equal(rec.parsed, []string{h2}) {
		t.Errorf("taken %q, parsed %q", rec.taken, rec.parsed)
	}
	if got := strings.Join(*ev, ","); got != "start b,end" {
		t.Errorf("events with two elements taken: %s", got)
	}

	// A consumer that claims more than the document holds is ignored.
	greedy := &Handler{OfferHost: func(doc []byte, start int) int { return len(doc) - start + 1 }}
	if err := ParseBytes([]byte(doc), greedy); err != nil {
		t.Errorf("overlong claim: %v", err)
	}
	// HOST in the wrong place is still the parser's error to report.
	bad := `<GANGLIA_XML VERSION="1" SOURCE="s"><HOST NAME="a"/></GANGLIA_XML>`
	if err := ParseBytes([]byte(bad), &Handler{OfferHost: rec.offer}); err == nil || !strings.Contains(err.Error(), "HOST inside") {
		t.Errorf("misplaced HOST: %v", err)
	}
}
