package gxml

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSourceHealthRoundTrip(t *testing.T) {
	// A grid's SOURCE_HEALTH records survive write -> parse intact,
	// including a down source's error text with XML-hostile characters,
	// and land on the grid that declared them — not an ancestor.
	rep := sampleReport()
	rep.Grids[0].Health = []*SourceHealth{
		{Name: "Meteor", Status: "up", ActiveAddr: "head-b:8649"},
		{Name: "attic", Status: "down", ActiveAddr: "attic:8652",
			DownSince: 1_057_000_100,
			LastError: "dial attic:8652: \"refused\" <&>\nsecond line"},
	}
	rep.Grids[0].Grids[0].Health = []*SourceHealth{
		{Name: "inner", Status: "up", ActiveAddr: "inner:8649"},
	}

	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	for _, dtd := range []bool{false, true} {
		doc := buf.String()
		if dtd {
			doc = withDTD(t, rep)
		}
		got, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("parse (dtd=%v): %v", dtd, err)
		}
		if !reflect.DeepEqual(got.Grids[0].Health, rep.Grids[0].Health) {
			t.Errorf("outer health (dtd=%v):\n got %+v\nwant %+v",
				dtd, got.Grids[0].Health[1], rep.Grids[0].Health[1])
		}
		if !reflect.DeepEqual(got.Grids[0].Grids[0].Health, rep.Grids[0].Grids[0].Health) {
			t.Errorf("nested health (dtd=%v): %+v", dtd, got.Grids[0].Grids[0].Health)
		}
	}
}

func TestSourceHealthRequiresGrid(t *testing.T) {
	// The element is only meaningful inside a GRID; anywhere else is a
	// nesting violation, same as the rest of the dialect.
	doc := `<GANGLIA_XML VERSION="1" SOURCE="gmetad">` +
		`<CLUSTER NAME="c" OWNER="" URL="" LOCALTIME="0">` +
		`<SOURCE_HEALTH NAME="x" STATUS="up"/></CLUSTER></GANGLIA_XML>`
	if _, err := Parse(bytes.NewReader([]byte(doc))); err == nil {
		t.Error("SOURCE_HEALTH accepted outside GRID")
	}
}
