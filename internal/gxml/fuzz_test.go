package gxml

import (
	"bytes"
	"strings"
	"testing"

	"ganglia/internal/metric"
	"ganglia/internal/summary"
)

// FuzzParse hammers the hand-rolled streaming parser with arbitrary
// bytes: it must never panic, and any document it accepts must
// round-trip through the writer and parse again to an equivalent shape.
func FuzzParse(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteReport(&seed, sampleReport())
	f.Add(seed.String())
	f.Add(`<GANGLIA_XML VERSION="1" SOURCE="s"></GANGLIA_XML>`)
	f.Add(`<GANGLIA_XML VERSION="1" SOURCE="s"><CLUSTER NAME="c" OWNER="" URL="" LOCALTIME="0"><HOST NAME="h" IP="" REPORTED="0"><METRIC NAME="m" VAL="1" TYPE="int32"/></HOST></CLUSTER></GANGLIA_XML>`)
	f.Add(`<?xml version="1.0"?><!DOCTYPE GANGLIA_XML [<!ELEMENT X (Y)>]><GANGLIA_XML VERSION="1" SOURCE="s"/>`)
	f.Add(`<GANGLIA_XML VERSION="&amp;&lt;&gt;&#65;" SOURCE="s"/>`)
	f.Add("<!-- -->")

	f.Fuzz(func(t *testing.T, doc string) {
		rep, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, rep); err != nil {
			t.Fatalf("accepted document failed to re-serialize: %v", err)
		}
		rep2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("writer output unparseable: %v\ninput: %q", err, doc)
		}
		if rep2.Hosts() != rep.Hosts() {
			t.Fatalf("hosts changed across round trip: %d -> %d", rep.Hosts(), rep2.Hosts())
		}
		if len(rep2.Grids) != len(rep.Grids) || len(rep2.Clusters) != len(rep.Clusters) {
			t.Fatalf("tree shape changed across round trip")
		}
	})
}

// FuzzParseStreamChaos feeds ParseStream the failure shapes the fault
// network injects into polls — documents cut off mid-stream and
// documents with bit-flipped bytes. Whatever arrives, the streaming
// parser must return an error or a document, never panic, with every
// callback subscribed.
func FuzzParseStreamChaos(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteReport(&seed, sampleReport())
	f.Add(seed.String(), uint16(0), uint8(0))
	f.Add(seed.String(), uint16(100), uint8(0)) // truncate mid-document
	f.Add(seed.String(), uint16(0), uint8(15))  // garble ~1/16 bytes
	f.Add(seed.String(), uint16(300), uint8(7)) // both
	f.Add(`<GANGLIA_XML VERSION="1" SOURCE="s"><GRID NAME="g" AUTHORITY="a" LOCALTIME="0"><SOURCE_HEALTH NAME="x" STATUS="down" ACTIVE="a:1" DOWN_SINCE="5" LAST_ERROR="e"/></GRID></GANGLIA_XML>`, uint16(120), uint8(11))

	subscribed := &Handler{
		StartReport:   func(string, string) {},
		EndReport:     func() {},
		StartGrid:     func(string, string, int64) {},
		EndGrid:       func() {},
		StartCluster:  func(string, string, string, int64) {},
		EndCluster:    func() {},
		StartHost:     func(Host) {},
		EndHost:       func(int, int) {},
		Metric:        func(metric.Metric) {},
		SummaryHosts:  func(uint32, uint32) {},
		SummaryMetric: func(summary.Metric) {},
		SourceHealth:  func(SourceHealth) {},
		StartHistory:  func(History) {},
		EndHistory:    func() {},
		HistoryPoint:  func(HistoryPoint) {},
	}

	f.Fuzz(func(t *testing.T, doc string, cut uint16, stride uint8) {
		b := []byte(doc)
		if int(cut) > 0 && int(cut) < len(b) {
			b = b[:cut] // a peer that closed the stream mid-document
		}
		if stride > 0 {
			// A link that flips roughly one bit per stride bytes,
			// deterministically so failures replay.
			b = bytes.Clone(b)
			for i := 0; i < len(b); i += int(stride) + 1 {
				b[i] ^= 1 << (uint(i) % 8)
			}
		}
		_ = ParseStream(bytes.NewReader(b), subscribed)
	})
}
