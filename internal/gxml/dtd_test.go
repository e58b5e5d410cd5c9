package gxml

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"ganglia/internal/metric"
)

// withDTD serializes r as a daemon that embeds the DTD does: the
// declaration follows the XML declaration, ahead of GANGLIA_XML.
func withDTD(t *testing.T, r *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(buf.String(), XMLDecl)
	if !ok {
		t.Fatal("report does not open with the XML declaration")
	}
	return XMLDecl + DTD + body
}

func TestDTDOutputRoundTrip(t *testing.T) {
	out := withDTD(t, sampleReport())
	if !strings.Contains(out, "<!DOCTYPE GANGLIA_XML [") {
		t.Fatal("no DTD in output")
	}
	// Our own parser skips the internal subset (brackets contain '>').
	rep, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("own parser rejected DTD output: %v", err)
	}
	if rep.Hosts() != 2 {
		t.Errorf("hosts = %d", rep.Hosts())
	}
}

func TestDTDOutputAcceptedByStdlib(t *testing.T) {
	dec := xml.NewDecoder(strings.NewReader(withDTD(t, sampleReport())))
	dec.CharsetReader = func(charset string, input io.Reader) (io.Reader, error) {
		return input, nil // output is pure ASCII
	}
	for {
		_, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stdlib parser rejected DTD output: %v", err)
		}
	}
}

func TestDTDDeclaresEveryEmittedElement(t *testing.T) {
	// Guard against the grammar and the writer drifting apart: every
	// element the writer can emit must be declared in the DTD.
	for _, el := range []string{"GANGLIA_XML", "GRID", "CLUSTER", "HOST", "METRIC", "HOSTS", "METRICS", "HISTORY", "POINT"} {
		if !strings.Contains(DTD, "<!ELEMENT "+el+" ") {
			t.Errorf("DTD missing element %s", el)
		}
	}
	for ty := metric.TypeString; ty <= metric.TypeTimestamp; ty++ {
		if !strings.Contains(DTD, ty.String()) {
			t.Errorf("DTD metric TYPE enum missing %q", ty.String())
		}
	}
	for sl := metric.SlopeZero; sl <= metric.SlopeUnspecified; sl++ {
		if !strings.Contains(DTD, sl.String()) {
			t.Errorf("DTD SLOPE enum missing %q", sl.String())
		}
	}
}
