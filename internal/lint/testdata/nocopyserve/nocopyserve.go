// Package nocopyservedata exercises the nocopyserve analyzer: serve-path
// code must splice pre-rendered fragments, never deep-copy snapshots or
// build throwaway gxml.Report DOMs for non-history queries.
package nocopyservedata

import (
	"bytes"

	"ganglia/internal/gxml"
)

// The deep-copy helpers of the retired DOM pipeline. In the real
// package they live in reference.go; here they stand in so the
// same-package call check can be exercised.
func agedCluster(c *gxml.Cluster, age uint32) *gxml.Cluster { return c }
func agedGrid(g *gxml.Grid, age uint32) *gxml.Grid          { return g }
func agedHost(h *gxml.Host, age uint32) *gxml.Host          { return h }

type server struct{}

func (server) ReferenceReport(q string) (*gxml.Report, error) { return nil, nil }

// badDeepCopies answers a query by copying the selected subtree — the
// allocation storm the zero-copy pipeline deleted.
func badDeepCopies(c *gxml.Cluster, g *gxml.Grid, h *gxml.Host) {
	_ = agedCluster(c, 5) // want "deep-copy helper agedCluster"
	_ = agedGrid(g, 5)    // want "deep-copy helper agedGrid"
	_ = agedHost(h, 5)    // want "deep-copy helper agedHost"
}

// badOracleOnServePath reaches for the equivalence oracle at query time.
func badOracleOnServePath(s server) {
	_, _ = s.ReferenceReport("/") // want "deep-copy helper ReferenceReport"
}

// badThrowawayDOM assembles a fresh document tree per query.
func badThrowawayDOM(c *gxml.Cluster) *gxml.Report {
	return &gxml.Report{ // want "throwaway gxml.Report DOM"
		Version:  gxml.Version,
		Clusters: []*gxml.Cluster{c},
	}
}

// badDOMSerialize renders a tree instead of splicing cached bytes.
func badDOMSerialize(rep *gxml.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := gxml.WriteReport(&buf, rep); err != nil { // want "gxml.WriteReport"
		return nil, err
	}
	if _, err := gxml.RenderReport(rep); err != nil { // want "gxml.RenderReport"
		return nil, err
	}
	return buf.Bytes(), nil
}

// goodSplice is the zero-copy shape: cached fragment bytes under a
// per-request header, no tree in sight.
func goodSplice(buf *bytes.Buffer, header, frag []byte) {
	buf.Write(header)
	buf.Write(frag)
}

// goodHistoryAnswer is the deliberate exception: history answers read
// the mutable archive pool, so the DOM path is their contract.
func goodHistoryAnswer(buf *bytes.Buffer, rep *gxml.Report) error {
	return gxml.WriteReport(buf, rep) //lint:allow nocopyserve history answers use the DOM path by contract
}

// A bare directive without a reason suppresses nothing.
func badReasonlessAllow(c *gxml.Cluster) {
	//lint:allow nocopyserve
	_ = agedCluster(c, 1) // want "deep-copy helper agedCluster"
}
