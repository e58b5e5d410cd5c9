package query

import (
	"strings"
	"testing"
)

// FuzzParse hammers the query parser with arbitrary lines, as received
// on gmetad's interactive port: it must never panic, and any query it
// accepts must have a stable canonical form — String() reparses to the
// same query, and Key() is a fixed point suitable for cache keying.
func FuzzParse(f *testing.F) {
	f.Add("/")
	f.Add("/meteor/compute-0-0")
	f.Add("/meteor/compute-0-0/load_one")
	f.Add("/meteor?filter=summary")
	f.Add("/meteor/compute-0-0/load_one?filter=history")
	f.Add("/~met.*/~compute-[0-9]+")
	f.Add("")
	f.Add("\n")
	f.Add("   \t  \n")
	f.Add("//")
	f.Add("/--")
	f.Add("--/--/--")
	f.Add("/a--b/--c--/--")
	f.Add("/~(unclosed")
	f.Add("/a/b/c/d")
	f.Add("/?filter=")
	f.Add("/?filter=bogus")
	f.Add("?filter=summary")
	f.Add("/\x00/\xff")
	f.Add("/a\u00a0/b\u2005")

	f.Fuzz(func(t *testing.T, line string) {
		q, err := Parse(line)
		if err != nil {
			return
		}
		if q.Depth() > MaxDepth {
			t.Fatalf("accepted query deeper than %d: %q", MaxDepth, line)
		}
		canonical := q.String()
		q2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form unparseable: %q (from %q): %v", canonical, line, err)
		}
		// One reparse may canonicalize further (the line protocol trims
		// whitespace, so a trailing regex segment ending in spaces
		// loses them); after that the form must be a fixed point.
		q3, err := Parse(q2.String())
		if err != nil {
			t.Fatalf("second canonical form unparseable: %q (from %q): %v", q2.String(), line, err)
		}
		if q3.String() != q2.String() || q3.Key() != q2.Key() {
			t.Fatalf("canonical form never converges: %q -> %q -> %q (from %q)",
				canonical, q2.String(), q3.String(), line)
		}
		// Identity holds on the converged form (whitespace-only
		// segments may evaporate on the first reparse, never after).
		if q3.Depth() != q2.Depth() || q3.Filter != q2.Filter {
			t.Fatalf("converged query identity unstable: %q (from %q)", q2.String(), line)
		}
		// The key must dedup the spellings the wire protocol produces.
		for _, variant := range []string{line + "\n", " " + line + " ", strings.Trim(line, wireSpace)} {
			v, err := Parse(variant)
			if err != nil {
				continue
			}
			if v.Key() != q.Key() {
				t.Fatalf("equivalent spelling %q keyed %q, want %q", variant, v.Key(), q.Key())
			}
		}
	})
}
